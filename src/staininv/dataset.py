"""Image I/O, patch preprocessing, and the synthetic multi-domain triplet set.

Images travel as binary PPM (P6, maxval 255) so every artifact is bit-exact
and diffable.  Triplet datasets pair one image per domain for the same
underlying texture; the synthetic generator perturbs a base image's chroma
in HSD space so that aligned domains share their density plane by
construction, which gives the evaluation suite an exact oracle.
"""

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .colour import hsd_forward, hsd_inverse_clamped, od_to_rgb, rgb_to_od
from .numerics import derive_seed
from .persist import UsageError, checked, read_json_object, write_json

GCN_GUARD = 1e-8
ZCA_EPSILON = 1e-5
_ROW_BLOCK = 4096  # rows per block of a whole-matrix GCN or whitening pass
REFERENCE_DOMAIN = "A"  # the unperturbed domain of every synthetic triplet
TRAIN_FRACTION = 0.8  # share of triplets in the train split

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PpmParseError(ValueError):
    """Malformed PPM data; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class Image:
    """8-bit RGB image; pixels is a (height, width, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError("pixels must have shape (height, width, 3)")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


def _next_token(data, pos):
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\n\r":
                pos += 1
        else:
            break
    if pos >= n:
        raise PpmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], start, pos


def parse_ppm(data):
    """Parse binary P6 bytes into an Image."""
    if data[:2] != b"P6":
        raise PpmParseError(f"not a P6 file (magic {data[:2]!r})", 0)
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        token, start, pos = _next_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise PpmParseError(f"invalid {name} token {token!r}", start) from None
        if value <= 0:
            raise PpmParseError(f"{name} must be positive, got {value}", start)
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise PpmParseError(f"unsupported maxval {maxval} (only 255)", pos)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmParseError("expected single whitespace after maxval", pos)
    pos += 1
    expected = width * height * 3
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise PpmParseError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}", pos
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(pixels.copy())


def load_image(path):
    with open(path, "rb") as fh:
        return parse_ppm(fh.read())


def save_image(image, path):
    header = f"P6\n{image.width} {image.height}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


def extract_patches(image, size=8, stride=None):
    """Flattened square patches in row-major scan order.

    Returns a (J, size*size*3) array of the pixels' own dtype (uint8 for an
    ``Image``: raw byte values, an eighth of their float64 size) with
    J = (floor((H-size)/stride)+1) * (floor((W-size)/stride)+1).  Every
    preprocessing step converts to float64 itself, so callers keep the bytes
    until a batch needs them.
    """
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    if stride is None:
        stride = size
    if stride < 1:
        raise ValueError("stride must be positive")
    h, w = pixels.shape[:2]
    if size > h or size > w:
        raise ValueError(f"patch size {size} exceeds image dims {h}x{w}")
    windows = np.lib.stride_tricks.sliding_window_view(pixels, (size, size), axis=(0, 1))
    windows = windows[::stride, ::stride]  # (gh, gw, 3, size, size)
    gh, gw = windows.shape[:2]
    return windows.transpose(0, 1, 3, 4, 2).reshape(gh * gw, size * size * 3)


def scale_to_pm1(values):
    """Map byte values [0, 255] to [-1, 1]."""
    return np.asarray(values, dtype=np.float64) / 127.5 - 1.0


def _row_blocked(rows_fn, arr, width, out=None):
    """``rows_fn(arr)`` for a matrix, computed in blocks of rows for a tall one.

    A matrix of more than ``_ROW_BLOCK`` rows is cut into near-equal blocks,
    so only the float64 result is full-size.  Equal blocks also keep every
    block large: on OpenBLAS a block of one or two rows takes another kernel
    and moves the last bits of its matmul, while blocks of thousands of rows
    give the whole matrix's bits.

    The result goes into ``out`` when it is given, and ``out`` is returned.
    ``out`` may be ``arr`` itself: each block is computed whole before it is
    stored, and no later block reads it.
    """
    if arr.ndim != 2 or arr.shape[0] <= _ROW_BLOCK:
        if out is None:
            return rows_fn(arr)
        out[...] = rows_fn(arr)
        return out
    n = arr.shape[0]
    count = -(-n // _ROW_BLOCK)
    edges = [n * i // count for i in range(count + 1)]
    if out is None:
        out = np.empty((n, width))
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = rows_fn(arr[lo:hi])
    return out


def _gcn_rows(arr):
    arr = np.asarray(arr, dtype=np.float64)
    mean = arr.mean(axis=-1, keepdims=True)
    std = arr.std(axis=-1, keepdims=True)
    return (arr - mean) / (std + GCN_GUARD)


def gcn(patch):
    """Global contrast normalisation: zero mean, unit population std per patch.

    Takes byte-valued patches of any real dtype and returns float64.
    """
    arr = np.asarray(patch)
    return _row_blocked(_gcn_rows, arr, arr.shape[-1])


@dataclass
class ZcaTransform:
    """Symmetric whitening transform fitted on a patch population."""

    mean: np.ndarray
    matrix: np.ndarray
    epsilon: float


def zca_fit(patches, epsilon=ZCA_EPSILON, overwrite_input=False):
    """Fit ZCA whitening: U diag(1/sqrt(lambda+eps)) U^T of the covariance.

    With ``overwrite_input``, a float64 ``patches`` array is centred in
    place, so the caller hands it over and must not read it again; otherwise
    ``patches`` is left unchanged and the centred rows are a new array.  The
    transform is the same either way.
    """
    x = np.asarray(patches, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a (samples, dims) matrix")
    mean = x.mean(axis=0)
    if overwrite_input:
        x -= mean
        centered = x
    else:
        centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    lam, u = np.linalg.eigh(cov)
    lam = np.maximum(lam, 0.0)
    matrix = (u / np.sqrt(lam + epsilon)) @ u.T
    matrix = (matrix + matrix.T) / 2.0
    return ZcaTransform(mean=mean, matrix=matrix, epsilon=epsilon)


def zca_apply(transform, patch, out=None):
    """Whiten one patch vector or a batch of rows.

    The whitened rows go into ``out`` when it is given (it may be ``patch``
    itself, whitened in place), and ``out`` is returned.
    """
    arr = np.asarray(patch, dtype=np.float64)
    return _row_blocked(
        lambda rows: (rows - transform.mean) @ transform.matrix.T, arr,
        transform.matrix.shape[0], out,
    )


@dataclass(frozen=True)
class StainPerturbation:
    """Parametric chroma transform in HSD space (identity by default).

    Rotation, per-axis scaling, and offset act on the (c_x, c_y) plane;
    density_gain scales the density plane.  A unit gain therefore preserves
    tissue structure exactly up to 8-bit quantisation.
    """

    rotation: float = 0.0
    scale: tuple = (1.0, 1.0)
    offset: tuple = (0.0, 0.0)
    density_gain: float = 1.0


#: the perturbed domains of ``synth``, each a fixed chroma shift of ``REFERENCE_DOMAIN``;
#: they stand in for the paper's CycleGAN-translated stain domains
PERTURBATIONS = {
    "B": StainPerturbation(rotation=0.55, scale=(1.08, 0.92), offset=(0.03, 0.02)),
    "C": StainPerturbation(rotation=-0.5, scale=(0.93, 1.07), offset=(-0.02, 0.04)),
}


def perturb_image(image, perturbation):
    """Apply a stain perturbation to an RGB image; returns (image, clamp count)."""
    hsd = hsd_forward(rgb_to_od(image.pixels))
    cos_t = np.cos(perturbation.rotation)
    sin_t = np.sin(perturbation.rotation)
    c_x = cos_t * hsd.c_x - sin_t * hsd.c_y
    c_y = sin_t * hsd.c_x + cos_t * hsd.c_y
    c_x = c_x * perturbation.scale[0] + perturbation.offset[0]
    c_y = c_y * perturbation.scale[1] + perturbation.offset[1]
    density = hsd.density * perturbation.density_gain
    od, clamped = hsd_inverse_clamped(replace(hsd, c_x=c_x, c_y=c_y, density=density))
    return Image(od_to_rgb(od)), clamped


@dataclass
class TripletDataset:
    """Aligned images indexed by (triplet, domain)."""

    domain_ids: list
    triplets: list  # list of {domain_id: Image}
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        for i, triplet in enumerate(self.triplets):
            if set(triplet) != set(self.domain_ids):
                raise ValueError(f"triplet {i} does not cover domains {self.domain_ids}")
            shapes = {triplet[d].pixels.shape for d in self.domain_ids}
            if len(shapes) != 1:
                raise ValueError(f"triplet {i} images differ in size")

    def __len__(self):
        return len(self.triplets)


def synth_triplets(base_images, perturbations, seed):
    """Build aligned triplets: each base image as ``REFERENCE_DOMAIN`` plus one perturbed twin.

    ``perturbations`` maps each non-reference domain id to its
    StainPerturbation.  Out-of-gamut pixels are clamped at zero OD and
    counted in the manifest.
    """
    if REFERENCE_DOMAIN in perturbations:
        raise ValueError("reference domain must not carry a perturbation")
    domain_ids = [REFERENCE_DOMAIN, *perturbations]
    triplets = []
    clamp_count = 0
    for base in base_images:
        group = {REFERENCE_DOMAIN: base}
        for domain, pert in perturbations.items():
            mapped, clamped = perturb_image(base, pert)
            clamp_count += clamped
            group[domain] = mapped
        triplets.append(group)
    manifest = {
        "domains": domain_ids,
        "generator": {
            "seed": seed,
            "perturbations": {d: asdict(p) for d, p in perturbations.items()},
            "clamp_count": clamp_count,
        },
    }
    return TripletDataset(domain_ids=domain_ids, triplets=triplets, manifest=manifest)


def split(dataset, seed):
    """Deterministic disjoint/exhaustive train-test split of triplets, ``TRAIN_FRACTION``
    of them in the train part."""
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(round(len(dataset) * TRAIN_FRACTION))
    parts = []
    for idx in (order[:n_train], order[n_train:]):
        parts.append(
            TripletDataset(
                domain_ids=list(dataset.domain_ids),
                triplets=[dataset.triplets[i] for i in idx],
                manifest=dict(dataset.manifest),
            )
        )
    return parts[0], parts[1]


def save_dataset(dataset, directory):
    """Write PPM images plus a manifest.json naming them; return the names of the files
    written."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, triplet in enumerate(dataset.triplets):
        paths = {}
        for domain in dataset.domain_ids:
            name = f"triplet_{i:05d}_{domain}.ppm"
            save_image(triplet[domain], os.path.join(directory, name))
            paths[domain] = name
        entries.append({"id": i, "paths": paths})
    manifest = dict(dataset.manifest)
    manifest["domains"] = list(dataset.domain_ids)
    manifest["triplets"] = entries
    write_json(os.path.join(directory, "manifest.json"), manifest)
    return [*(name for entry in entries for name in entry["paths"].values()), "manifest.json"]


def listed_value(record, key, kind, path, where="the root"):
    """``record[key]`` of a parsed listing, checked to be a ``kind``; a UsageError names the
    listing file and the key."""
    value = record.get(key) if isinstance(record, dict) and isinstance(key, str) else None
    return checked(value, kind, f"malformed dataset listing {path}: {key!r} of {where}")


def listed_names(record, key, path):
    """``record[key]`` of a parsed listing, checked to be a non-empty list of distinct
    strings; a UsageError names the listing file and the key."""
    names = listed_value(record, key, list, path)
    if not names or not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
        raise UsageError(f"malformed dataset listing {path}: {key!r} of the root must be a "
                         f"non-empty list of distinct strings, got {names!r}")
    return names


def load_listed_image(path):
    """An image a dataset or labelled set lists.  A UsageError names the file when it cannot
    be read or parsed, or when a side is not a multiple of 8: every stage cuts whole 8x8
    patches."""
    try:
        image = load_image(path)
    except OSError as exc:
        raise UsageError(f"cannot read listed image {path}: {exc.strerror}") from None
    except PpmParseError as exc:
        raise UsageError(f"malformed listed image {path}: {exc}") from None
    if image.width % 8 or image.height % 8:
        raise UsageError(f"listed image {path} is {image.width}x{image.height}: each side "
                         "must be a multiple of 8")
    return image


def load_dataset(directory):
    """Read a dataset written by ``save_dataset``.

    Raises a UsageError, naming the file, when the manifest is missing or
    malformed (it needs ``domains``, a non-empty list of distinct names, and a
    non-empty ``triplets`` list whose ``paths`` name one image per domain), or
    an image it lists fails ``load_listed_image`` or differs in size from the
    rest of its triplet.
    """
    listing = os.path.join(directory, "manifest.json")
    manifest = read_json_object(listing, "dataset listing")
    domains = listed_names(manifest, "domains", listing)
    listed = listed_value(manifest, "triplets", list, listing)
    if not listed:
        raise UsageError(f"malformed dataset listing {listing}: 'triplets' is empty")
    triplets = []
    for i, entry in enumerate(listed):
        paths = listed_value(entry, "paths", dict, listing, f"triplet {i}")
        triplet = {}
        first_path = None
        for domain in domains:
            name = listed_value(paths, domain, str, listing, f"triplet {i} paths")
            path = os.path.join(directory, name)
            image = load_listed_image(path)
            if first_path is None:
                first_path, first = path, image
            elif image.pixels.shape != first.pixels.shape:
                raise UsageError(
                    f"{path} is {image.width}x{image.height} but {first_path} in "
                    f"triplet {i} is {first.width}x{first.height}"
                )
            triplet[domain] = image
        triplets.append(triplet)
    return TripletDataset(domain_ids=list(domains), triplets=triplets, manifest=manifest)


def generate_base_images(count, size, seed):
    """Seeded nuclei-like blob textures on a pale eosin-toned background."""
    images = []
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for i in range(count):
        rng = np.random.default_rng(derive_seed(seed, f"base-{i}"))
        base = np.empty((size, size, 3))
        base[..., 0] = rng.uniform(195, 235)
        base[..., 1] = rng.uniform(155, 200)
        base[..., 2] = rng.uniform(175, 220)
        # slow horizontal/vertical wash so patches are not globally constant
        wash = rng.uniform(-12, 12, size=2)
        base += (wash[0] * (xx / size) + wash[1] * (yy / size))[..., None]
        base = paint_blobs(
            base, rng, (5, 12), (0.06, 0.2), ((70, 140), (40, 90), (110, 180)), 0.85
        )
        base += rng.normal(0.0, 2.5, size=base.shape)
        images.append(Image(np.clip(np.rint(base), 3, 252).astype(np.uint8)))
    return images


def paint_blobs(base, rng, count, radius, colours, opacity):
    """Alpha-blend random Gaussian blobs onto a square (size, size, 3) image.

    Draws from ``rng``, in order: the blob count in ``[count[0], count[1])``,
    then per blob its centre, its radius as a fraction of the side within
    ``radius``, and one colour value per channel within ``colours``.
    """
    size = base.shape[0]
    coords = np.arange(size, dtype=np.float64)
    for _ in range(int(rng.integers(*count))):
        cx, cy = rng.uniform(0, size, size=2)
        r = rng.uniform(radius[0] * size, radius[1] * size)
        colour = np.array([rng.uniform(*span) for span in colours])
        d2 = (coords - cx) ** 2 + ((coords - cy) ** 2)[:, None]
        alpha = opacity * np.exp(-d2 / (2.0 * (r / 2.0) ** 2))
        base = (1.0 - alpha[..., None]) * base + alpha[..., None] * colour
    return base
