"""Image I/O, patch preprocessing, and the synthetic multi-domain triplet set.

Images travel as binary PPM (P6, maxval 255) so every artifact is bit-exact
and diffable.  An image set on disk is a JSON listing plus multi-image PPM
files: each file is its images' P6 streams one after another, with nothing
between them, so a dataset of any size is one file per domain.  Triplet
datasets pair one image per domain for the same underlying texture; the
synthetic generator perturbs a base image's chroma in HSD space so that
aligned domains share their density plane by construction, which gives the
evaluation suite an exact oracle.  ``perturb_block`` writes a domain's twins
a chunk of images at a time: each image's HSD planes come from its own
``hsd_forward`` call, and the perturbation and the way back to bytes run on
the whole chunk, in the steps of one image, so every twin has the bytes of
perturbing its image alone.

The base images, and the classifier's labelled sets, are ``BlobTexture``
parameter sets painted by one painter, ``paint_textures``: each image draws
from its own seeded generator, and a chunk of images is blended
channel-first, a blob of every image at a time.
"""

import itertools
import math
import mmap
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .colour import HsdImage, hsd_forward, hsd_inverse_clamped, od_to_rgb, rgb_to_od
from .numerics import derive_seed
from .persist import UsageError, checked, open_input, read_json_object, write_json

GCN_GUARD = 1e-8
ZCA_EPSILON = 1e-5
_ROW_BLOCK = 1024  # rows per block of a whole-matrix GCN or whitening pass
_WINDOW = 1 << 20  # bytes of a mapped image file read before its pages are given back
REFERENCE_DOMAIN = "A"  # the unperturbed domain of every synthetic triplet
TRAIN_FRACTION = 0.8  # share of triplets in the train split
PATCH = 8  # side of every square patch: an 8 x 8 RGB patch is 192 values
_PAINT_CHUNK = 32  # images painted or perturbed together: 32 float64 32 px images are 0.8 MB

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


def parse_ppm(data, pos=0):
    """Parse the binary P6 image at byte offset ``pos`` of ``data``; return it as an Image
    and the offset just past its pixels, where the next image of a multi-image file starts.

    ``data`` is bytes or a read-only ``mmap``: only the image's own bytes are read, and
    every error offset counts from the start of ``data``.
    """
    if data[pos : pos + 2] != b"P6":
        raise PpmParseError(f"not a P6 image (magic {data[pos : pos + 2]!r})", pos)
    pos += 2
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
    return Image(pixels.copy()), pos + expected


def save_ppm(images, path):
    """Write ``images`` to one multi-image binary PPM file: each image's ``P6`` header and
    pixels, in order."""
    with open(path, "wb") as fh:
        for image in images:
            fh.write(b"P6\n%d %d\n255\n" % (image.width, image.height))
            fh.write(image.pixels.tobytes())


def extract_patches(image, stride):
    """Flattened ``PATCH`` px square patches at ``stride``, in row-major scan order.

    Returns a (J, 192) array of the pixels' own dtype (uint8 for an
    ``Image``: raw byte values, an eighth of their float64 size) with
    J = (floor((H-8)/stride)+1) * (floor((W-8)/stride)+1).  Every
    preprocessing step converts to float64 itself, so callers keep the bytes
    until a batch needs them.
    """
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    if stride < 1:
        raise ValueError("stride must be positive")
    h, w = pixels.shape[:2]
    if PATCH > h or PATCH > w:
        raise ValueError(f"patch size {PATCH} exceeds image dims {h}x{w}")
    gh, gw = (h - PATCH) // stride + 1, (w - PATCH) // stride + 1
    s0, s1, s2 = pixels.strides
    windows = np.lib.stride_tricks.as_strided(  # (gh, gw, 8, 8, 3), a read-only view
        pixels, (gh, gw, PATCH, PATCH, pixels.shape[2]), (s0 * stride, s1 * stride, s0, s1, s2),
        writeable=False,
    )
    return windows.reshape(gh * gw, PATCH * PATCH * 3)


def mapped_array(shape, dtype):
    """A zeroed array of ``shape`` and ``dtype`` in an anonymous memory mapping of its own.

    The mapping is unmapped, and its pages go back to the system, when the
    last array or view on it is dropped.  A block from malloc would not do
    that: glibc raises its mmap threshold to the size of a freed mmapped
    block, so after one large block is freed every later block below that
    size comes from the heap, whose freed memory stays resident.  Many small
    blocks are no better: glibc keeps freed heap chunks for reuse, and gives
    back only a freed top.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size == 0:  # an empty file cannot be mapped
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def patch_store(dataset, domain_ids, stride):
    """(domains, triplets, J, 192) uint8 array of the dataset's 8 px sub-patches at ``stride``.

    ``mcae.train_mcae`` trains on this array alone: a batch is scaled to [-1, 1]
    when it is drawn, which gives the same values as scaling the whole store
    up front at an eighth of its float64 memory, and the images can be let go
    once it is built.  A ``TripletDataset`` holds one image size, so every
    image gives the same patch grid.  The baseline trains on one domain's
    store, reshaped to its (triplets * J, 192) rows.  The store is a
    ``mapped_array``, so dropping it gives its pages back.
    """
    store = None
    for d, domain in enumerate(domain_ids):
        for t, triplet in enumerate(dataset.triplets):
            patches = extract_patches(triplet[domain], stride)
            if store is None:
                store = mapped_array((len(domain_ids), len(dataset), *patches.shape),
                                     patches.dtype)
            store[d, t] = patches
    return store


def scale_to_pm1(values):
    """Map byte values [0, 255] to [-1, 1], as a new float64 array scaled in place."""
    x = np.array(values, dtype=np.float64)
    x /= 127.5
    x -= 1.0
    return x


def _row_blocked(rows_fn, arr, width, out=None):
    """``rows_fn(arr)`` for a matrix, computed in blocks of rows for a tall one.

    A matrix of more than ``_ROW_BLOCK`` rows is cut into near-equal blocks,
    so only the result is full-size and every temporary of ``rows_fn`` is
    block-sized.  Equal blocks also keep every block large: on OpenBLAS a
    block of one or two rows takes another kernel and moves the last bits of
    its matmul, while blocks of 512 rows or more give the whole matrix's bits.

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
    """``(x - x.mean(-1)) / (x.std(-1) + GCN_GUARD)`` of ``arr`` as float64, bit for bit,
    worked out in place on one copy: the steps are ``np.std``'s, in its order."""
    x = np.array(arr, dtype=np.float64)
    x -= x.mean(axis=-1, keepdims=True)
    std = (x * x).sum(axis=-1, keepdims=True)
    std /= x.shape[-1]
    np.sqrt(std, out=std)
    std += GCN_GUARD
    x /= std
    return x


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


def zca_fit(patches, overwrite_input=False):
    """Fit ZCA whitening: U diag(1/sqrt(lambda + ZCA_EPSILON)) U^T of the covariance.

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
    matrix = (u / np.sqrt(lam + ZCA_EPSILON)) @ u.T
    matrix = (matrix + matrix.T) / 2.0
    return ZcaTransform(mean=mean, matrix=matrix, epsilon=ZCA_EPSILON)


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


def perturb_block(images, perturbation, out):
    """Write the stain-perturbed twins of ``images``, a sequence of Images of one size,
    into the (n, height, width, 3) uint8 rows of ``out``; return the count of pixels
    clamped at zero OD.

    Each image's HSD planes come from a ``hsd_forward`` call of its own.  The rotation,
    scale and offset of the chroma plane, the density gain, ``hsd_inverse_clamped`` and
    ``od_to_rgb`` then run on ``_PAINT_CHUNK`` images at a time, in place and in the order
    of the steps of one image, so every byte is that of perturbing the image alone.  The
    chunk's float planes are one ``mapped_array``, reused by every chunk, for the reason
    the painter's buffers are (see ``paint_textures``).
    """
    shape = out.shape[1:]
    if any(image.pixels.shape != shape for image in images):
        raise ValueError("the images differ in size: a dataset holds one image size")
    cos_t, sin_t = np.cos(perturbation.rotation), np.sin(perturbation.rotation)
    # the chunk's three OD planes, whose first two hold hsd_forward's c_x and c_y until
    # they are rotated, then the perturbed c_x, c_y and density planes
    planes = mapped_array((6, _PAINT_CHUNK, *shape[:2]), np.float64)
    clamped = 0
    for start in range(0, len(images), _PAINT_CHUNK):
        chunk = images[start : start + _PAINT_CHUNK]
        od, (c_x, c_y, density) = planes[:3, : len(chunk)], planes[3:, : len(chunk)]
        x, y = od[0], od[1]
        for j, image in enumerate(chunk):
            hsd = hsd_forward(rgb_to_od(image.pixels))
            x[j], y[j], density[j] = hsd.c_x, hsd.c_y, hsd.density
        # c_x = cos_t * x - sin_t * y and c_y = sin_t * x + cos_t * y
        np.multiply(cos_t, x, out=c_x)
        c_x -= np.multiply(sin_t, y, out=c_y)
        np.multiply(cos_t, y, out=y)
        np.multiply(sin_t, x, out=c_y)
        c_y += y
        c_x *= perturbation.scale[0]
        c_x += perturbation.offset[0]
        c_y *= perturbation.scale[1]
        c_y += perturbation.offset[1]
        density *= perturbation.density_gain
        # the inverse does not read the background mask
        clamped += hsd_inverse_clamped(HsdImage(c_x, c_y, density, None), out=od)[1]
        out[start : start + len(chunk)] = np.moveaxis(od_to_rgb(od, work=od), 0, -1)
    return clamped


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
        if len({image.pixels.shape for t in self.triplets for image in t.values()}) > 1:
            raise ValueError("the images differ in size: a dataset holds one image size")

    def __len__(self):
        return len(self.triplets)


def synth_triplets(base_images, perturbations, seed):
    """Build aligned triplets: each base image as ``REFERENCE_DOMAIN`` plus one perturbed twin.

    ``perturbations`` maps each non-reference domain id to its
    StainPerturbation.  Each domain's twins come from one ``perturb_block``
    call.  Out-of-gamut pixels are clamped at zero OD and counted in the
    manifest.  The base images must have one size: the twins are rows of one
    ``mapped_array``.
    """
    if REFERENCE_DOMAIN in perturbations:
        raise ValueError("reference domain must not carry a perturbation")
    domain_ids = [REFERENCE_DOMAIN, *perturbations]
    shape = base_images[0].pixels.shape if base_images else (0, 0, 3)
    twins = mapped_array((len(perturbations), len(base_images), *shape), np.uint8)
    clamp_count = sum(perturb_block(base_images, perturbation, block)
                      for perturbation, block in zip(perturbations.values(), twins))
    triplets = [
        {REFERENCE_DOMAIN: base, **{d: Image(twins[p, i]) for p, d in enumerate(perturbations)}}
        for i, base in enumerate(base_images)
    ]
    manifest = {
        "domains": domain_ids,
        "generator": {
            "seed": seed,
            "perturbations": {d: asdict(p) for d, p in perturbations.items()},
            "clamp_count": clamp_count,
        },
    }
    return TripletDataset(domain_ids=domain_ids, triplets=triplets, manifest=manifest)


def split_order(n, fractions, seed):
    """One seeded permutation of ``range(n)`` cut into consecutive parts: part i holds
    ``round(n * fractions[i])`` indices, and a last part the rest."""
    order = np.random.default_rng(seed).permutation(n)
    return np.split(order, np.cumsum([int(round(n * f)) for f in fractions]))


def split(dataset, seed):
    """Deterministic disjoint/exhaustive train-test split of triplets, ``TRAIN_FRACTION``
    of them in the train part."""
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    return tuple(
        TripletDataset(
            domain_ids=list(dataset.domain_ids),
            triplets=[dataset.triplets[i] for i in idx],
            manifest=dict(dataset.manifest),
        )
        for idx in split_order(len(dataset), [TRAIN_FRACTION], seed)
    )


def save_dataset(dataset, directory):
    """Write one multi-image PPM file per domain, holding that domain's image of every
    triplet in triplet order, plus a manifest.json naming the files and the triplet count;
    return the names of the files written."""
    os.makedirs(directory, exist_ok=True)
    paths = {domain: f"domain_{domain}.ppm" for domain in dataset.domain_ids}
    for domain, name in paths.items():
        save_ppm([triplet[domain] for triplet in dataset.triplets], os.path.join(directory, name))
    manifest = dict(dataset.manifest)
    manifest.update(domains=list(dataset.domain_ids), paths=paths, triplets=len(dataset))
    write_json(os.path.join(directory, "manifest.json"), manifest)
    return [*paths.values(), "manifest.json"]


def listed_value(record, key, kind, path, where="the root", bound=""):
    """``record[key]`` of a parsed listing, checked to be a ``kind`` within ``bound``; a
    UsageError names the listing file and the key."""
    value = record.get(key) if isinstance(record, dict) and isinstance(key, str) else None
    return checked(value, kind, f"malformed dataset listing {path}: {key!r} of {where}", bound)


def read_listing(directory, name, names_key):
    """An image set's listing file ``name`` in ``directory`` as (its path, the parsed object,
    its names).  A UsageError names the file and the key unless ``names_key`` is a non-empty
    list of distinct strings."""
    path = os.path.join(directory, name)
    doc = read_json_object(path, "dataset listing")
    names = listed_value(doc, names_key, list, path)
    if not names or not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
        raise UsageError(f"malformed dataset listing {path}: {names_key!r} of the root must "
                         f"be a non-empty list of distinct strings, got {names!r}")
    return path, doc, names


def _too_few(path, count, listing, why):
    return UsageError(f"image file {path} holds fewer than the {count} images {listing} "
                      f"lists in it: {why}")


def _map_image_file(path, count, listing):
    """A read-only mapping of the image file at ``path``; a UsageError names the file when
    it cannot be read or is empty."""
    try:
        with open_input(path, "image file", "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:  # which mmap cannot map
                raise _too_few(path, count, listing, "it is empty")
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise UsageError(f"cannot read image file {path}: {exc.strerror}") from None


def load_listed_images(listing, paths, count):
    """The images of the multi-image PPM files at ``paths``, ``count`` in each, which the
    listing file ``listing`` names: one (len(paths), count, height, width, 3) uint8
    ``mapped_array``, made once the first image fixes the size, so the set's pixels go back
    to the system when the set is dropped.

    Each file is read through one read-only mapping, ``parse_ppm`` once per image, and the
    mapping gives back the pages it has read every ``_WINDOW`` bytes, so no more of a file
    than that stays resident beside the block.  A UsageError names the file, and the image
    by its index, when the file cannot be read, an image is malformed or truncated, a side
    is not a multiple of 8 (every stage cuts whole 8x8 patches), an image's size differs
    from the first image's (an image set holds one size), the file holds fewer than
    ``count`` images, or bytes follow the last of them.
    """
    block = None
    for f, path in enumerate(paths):
        with _map_image_file(path, count, listing) as data:
            pos = released = 0
            for i in range(count):
                if pos == len(data):
                    raise _too_few(path, count, listing,
                                   f"it ends after image {i - 1}, at byte offset {pos}")
                try:
                    image, pos = parse_ppm(data, pos)
                except PpmParseError as exc:
                    raise UsageError(f"malformed image {i} of {path}: {exc}") from None
                if image.width % 8 or image.height % 8:
                    raise UsageError(f"image {i} of {path} is {image.width}x{image.height}: "
                                     "each side must be a multiple of 8")
                if block is None:
                    if count * image.pixels.nbytes > len(data):  # before the block is made
                        raise _too_few(path, count, listing, f"its {len(data)} bytes hold at "
                                       f"most {len(data) // image.pixels.nbytes} "
                                       f"{image.width}x{image.height} images")
                    block = mapped_array((len(paths), count, *image.pixels.shape), np.uint8)
                elif image.pixels.shape != block.shape[2:]:
                    height, width = block.shape[2:4]
                    raise UsageError(
                        f"malformed dataset listing {listing}: image {i} of {path} is "
                        f"{image.width}x{image.height} but image 0 of {paths[0]} is "
                        f"{width}x{height}: the images must have one size")
                block[f, i] = image.pixels
                if pos - released >= _WINDOW:
                    page = pos - pos % mmap.PAGESIZE
                    data.madvise(mmap.MADV_DONTNEED, released, page - released)
                    released = page
            if pos != len(data):
                raise UsageError(f"image file {path} has {len(data) - pos} bytes after its "
                                 f"{count} listed images (byte offset {pos})")
    return block


def load_dataset(directory):
    """Read a dataset written by ``save_dataset``.

    Raises a UsageError, naming the file, when the manifest is missing or
    malformed (it needs ``domains``, a non-empty list of distinct names,
    ``paths``, naming one image file per domain, and ``triplets``, the count of
    images in each file, at least 1), or an image file it names fails
    ``load_listed_images``.
    """
    listing, manifest, domains = read_listing(directory, "manifest.json", "domains")
    files = listed_value(manifest, "paths", dict, listing)
    paths = [os.path.join(directory, listed_value(files, d, str, listing, "'paths'"))
             for d in domains]
    count = listed_value(manifest, "triplets", int, listing, bound=">= 1")
    block = load_listed_images(listing, paths, count)
    triplets = [{d: Image(block[k, t]) for k, d in enumerate(domains)} for t in range(count)]
    return TripletDataset(domain_ids=list(domains), triplets=triplets, manifest=manifest)


@dataclass(frozen=True)
class BlobTexture:
    """One family of synthetic textures: a flat background, an optional linear wash,
    alpha-blended Gaussian blobs and per-pixel noise, rounded and clipped to bytes.

    Every span is a ``(lo, hi)`` pair drawn uniformly; ``count`` is the blob count's
    half-open integer range and ``radius`` the blob radius as fractions of the side.
    """

    background: tuple  # one span per channel
    wash: tuple  # span of the wash's x and y gradients, or None for no wash
    count: tuple
    radius: tuple
    colours: tuple  # one span per channel
    opacity: float
    noise: float  # standard deviation of the Gaussian pixel noise
    bounds: tuple  # the clip range of the rounded values


#: the nuclei-like blobs on a pale eosin-toned background of ``generate_base_images``, with
#: a slow horizontal/vertical wash so patches are not globally constant
BASE_TEXTURE = BlobTexture(
    background=((195, 235), (155, 200), (175, 220)), wash=(-12, 12), count=(5, 12),
    radius=(0.06, 0.2), colours=((70, 140), (40, 90), (110, 180)), opacity=0.85, noise=2.5,
    bounds=(3, 252),
)


def generate_base_images(count, size, seed):
    """Seeded ``BASE_TEXTURE`` images, as the rows of one ``mapped_array``."""
    block = mapped_array((count, size, size, 3), np.uint8)
    paint_textures(block, BASE_TEXTURE, (derive_seed(seed, f"base-{i}") for i in range(count)))
    return [Image(pixels) for pixels in block]


def _spans(spans):
    """The low ends and widths of ``(lo, hi)`` spans, as ``Generator.uniform`` computes them."""
    lo = np.array([float(a) for a, _ in spans])
    return lo, np.array([float(b) for _, b in spans]) - lo


def paint_textures(block, texture, seeds):
    """Paint ``block``'s (n, size, size, 3) uint8 rows with ``texture``, row i from its own
    generator ``np.random.default_rng`` of the i-th of the iterable ``seeds``, which is read
    a chunk at a time.

    Each generator draws, in order: ``random`` for the background's three channels and,
    with a wash, its x and y gradients; ``integers`` for the blob count; ``random`` for
    each blob's centre x and y, radius and three colour values; ``normal`` for the noise,
    in (size, size, 3) order.  A uniform value in a span is ``lo + (hi - lo) * u`` from
    ``random``, which is what ``Generator.uniform`` computes, and the values are those of
    one image painted alone with a ``uniform`` call per value.

    ``_PAINT_CHUNK`` images at a time are painted channel-first and sorted by blob count,
    so the images that still have a k-th blob are a prefix of the chunk and each round
    blends one blob into each of them in place.  Each blob's Gaussian denominator is
    ``2.0 * (r / 2.0) ** 2`` on the Python float, as the one-image painter computed it:
    that power is libm's ``pow``, which for about 8 in 10,000 radii differs in the last
    bit from numpy's square, and a pixel on a rounding boundary then changes its byte.
    """
    n, size = block.shape[:2]
    coords = np.arange(size, dtype=np.float64)
    ramp = coords / size  # the wash's gradient runs from 0 to (size - 1) / size
    background = (*texture.background, *([texture.wash] * 2 if texture.wash else []))
    bg_lo, bg_width = _spans(background)
    blob_lo, blob_width = _spans([
        (0, size), (0, size), (texture.radius[0] * size, texture.radius[1] * size),
        *texture.colours,
    ])
    # working buffers reused by every chunk, in mappings of their own (see ``mapped_array``):
    # freed malloc blocks of this size would raise glibc's mmap threshold for later stages
    base_buf, scratch = mapped_array((2, _PAINT_CHUNK, 3, size, size), np.float64)
    alpha_buf, keep_buf = mapped_array((2, _PAINT_CHUNK, size, size), np.float64)
    seeds = iter(seeds)
    for start in range(0, n, _PAINT_CHUNK):
        rngs = [np.random.default_rng(s) for s in itertools.islice(seeds, _PAINT_CHUNK)]
        flat = bg_lo + bg_width * np.array([rng.random(len(background)) for rng in rngs])
        blobs = []
        for rng in rngs:
            params = blob_lo + blob_width * rng.random(6 * int(rng.integers(*texture.count))
                                                       ).reshape(-1, 6)
            params[:, 2] = [2.0 * (r / 2.0) ** 2 for r in params[:, 2].tolist()]
            blobs.append(params)
        counts = np.array([len(b) for b in blobs])
        order = np.argsort(-counts, kind="stable")
        flat = flat[order]
        chunk = len(rngs)
        base = base_buf[:chunk]
        base[...] = flat[:, :3, None, None]
        if texture.wash:
            base += (flat[:, 3, None, None] * ramp + flat[:, 4, None, None] * ramp[:, None]
                     )[:, None]
        table = np.zeros((chunk, counts.max(initial=0), 6))
        for j, i in enumerate(order):
            table[j, : counts[i]] = blobs[i]
        for k in range(table.shape[1]):
            live = np.count_nonzero(counts > k)  # the first ``live`` images in ``order``
            cx, cy, denom = table[:live, k, :3].T
            dx = coords - cx[:, None]
            dx *= dx
            dy = coords - cy[:, None]
            dy *= dy
            alpha = np.add(dx[:, None, :], dy[:, :, None], out=alpha_buf[:live])
            np.negative(alpha, out=alpha)
            alpha /= denom[:, None, None]
            np.exp(alpha, out=alpha)
            alpha *= texture.opacity
            painted = base[:live]
            painted *= np.subtract(1.0, alpha, out=keep_buf[:live])[:, None]
            painted += np.multiply(alpha[:, None], table[:live, k, 3:, None, None],
                                   out=scratch[:live])
        out = scratch[:chunk].reshape(chunk, size, size, 3)
        for j, i in enumerate(order):
            out[j] = rngs[i].normal(0.0, texture.noise, size=(size, size, 3))
        out += base.transpose(0, 2, 3, 1)
        np.rint(out, out=out)
        np.clip(out, *texture.bounds, out=out)
        block[start + order] = out
