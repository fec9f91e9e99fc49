import hashlib
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staininv import classifier, dataset
from staininv.colour import hsd_forward, rgb_to_od
from staininv.dataset import (
    GCN_GUARD,
    PATCH,
    ZCA_EPSILON,
    Image,
    PpmParseError,
    StainPerturbation,
    TripletDataset,
    extract_patches,
    gcn,
    generate_base_images,
    load_dataset,
    load_image,
    mapped_array,
    parse_ppm,
    perturb_image,
    save_dataset,
    save_image,
    scale_to_pm1,
    split,
    split_order,
    synth_triplets,
    zca_apply,
    zca_fit,
)
from staininv.persist import UsageError


def _random_image(rng, h=16, w=16):
    return Image(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


# --- ppm ---


def test_ppm_roundtrip(tmp_path):
    img = _random_image(np.random.default_rng(0))
    path = tmp_path / "img.ppm"
    save_image(img, path)
    back = load_image(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_ppm_white_pixel_bytes(tmp_path):
    img = Image(np.full((1, 1, 3), 255, dtype=np.uint8))
    path = tmp_path / "white.ppm"
    save_image(img, path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_truncated_payload_names_counts():
    data = b"P6\n2 2\n255\n" + b"\x00" * 5
    with pytest.raises(PpmParseError, match="expected 12 bytes, got 5"):
        parse_ppm(data)


def test_ppm_bad_magic_offset():
    with pytest.raises(PpmParseError, match="byte offset 0"):
        parse_ppm(b"P5\n1 1\n255\n\x00")


def test_ppm_bad_token_offset():
    err = None
    try:
        parse_ppm(b"P6\nxy 1\n255\n")
    except PpmParseError as exc:
        err = exc
    assert err is not None and err.offset == 3


def test_ppm_comments_in_header():
    img = parse_ppm(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
    assert img.pixels.tolist() == [[[1, 2, 3]]]


#: (operation, position, byte) edits applied in order to a valid PPM; the bytes
#: favour those that steer the header tokenizer
_PPM_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 48),
        st.sampled_from(list(b"0123456789 \t\n\r#-+_Px\x00\xff")),
    ),
    max_size=4,
)


@settings(max_examples=600, deadline=None)
@given(
    width=st.integers(1, 4),
    height=st.integers(1, 4),
    edits=_PPM_EDITS,
    raw=st.none() | st.binary(max_size=48),
)
def test_property_parse_ppm_raises_only_ppm_parse_error(width, height, edits, raw):
    # mutated valid files, or raw bytes: either an Image or a PpmParseError
    data = bytearray(raw if raw is not None else b"P6\n%d %d\n255\n" % (width, height))
    if raw is None:
        data += bytes(range(3 * width * height))
        for op, pos, byte in edits:
            pos = min(pos, len(data))
            if op == "replace":
                data[pos : pos + 1] = bytes([byte])
            elif op == "insert":
                data[pos:pos] = bytes([byte])
            elif op == "delete":
                del data[pos : pos + 1]
            else:
                del data[pos:]
    try:
        image = parse_ppm(bytes(data))
    except PpmParseError:
        return
    assert isinstance(image, Image)


def test_image_validation():
    with pytest.raises(ValueError):
        Image(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(np.zeros((4, 4, 3), dtype=np.float64))


# --- patches ---


def _brute_force_patch_count(h, w, stride):
    count = 0
    for i in range(0, h - PATCH + 1, stride):
        for j in range(0, w - PATCH + 1, stride):
            count += 1
    return count


def test_patch_count_224():
    img = _random_image(np.random.default_rng(1), 224, 224)
    patches = extract_patches(img, 8)
    assert patches.shape == (784, 192)  # 28 x 28 grid


def test_patch_count_128():
    img = _random_image(np.random.default_rng(2), 128, 128)
    assert extract_patches(img, 8).shape[0] == 256


def test_single_patch_equals_image():
    img = _random_image(np.random.default_rng(3), 8, 8)
    patches = extract_patches(img, 3)
    assert patches.shape == (1, 192)
    assert np.array_equal(patches[0], img.pixels.reshape(-1).astype(float))


def test_patch_too_large():
    img = _random_image(np.random.default_rng(4), 4, 4)
    with pytest.raises(ValueError):
        extract_patches(img, 1)


def test_patch_scan_order_row_major():
    pixels = (np.arange(16 * 20 * 3) % 251).astype(np.uint8).reshape(16, 20, 3)
    patches = extract_patches(pixels, 2)
    # first patch is the top-left 8x8 block, flattened row-major
    assert np.array_equal(patches[0], pixels[:8, :8].reshape(-1))
    # second patch steps right by the stride, the seventh starts the next row of patches
    assert np.array_equal(patches[1], pixels[:8, 2:10].reshape(-1))
    assert np.array_equal(patches[7], pixels[2:10, :8].reshape(-1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(8, 40),
    st.integers(8, 40),
    st.integers(1, 10),
)
def test_property_patch_count_formula(h, w, stride):
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    got = extract_patches(pixels, stride).shape[0]
    gh, gw = (h - PATCH) // stride + 1, (w - PATCH) // stride + 1
    assert got == gh * gw == _brute_force_patch_count(h, w, stride)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(8, 27),
    st.integers(8, 27),
    st.integers(1, 10),
    st.sampled_from([np.uint8, np.float64]),
    st.booleans(),
)
def test_property_patches_equal_the_sliding_window_expression(h, w, stride, dtype, view):
    pixels = np.random.default_rng(h * 100 + w).integers(0, 256, (h, w + 3, 3)).astype(dtype)
    pixels = pixels[:, 1 : w + 1] if view else pixels[:, :w].copy()  # strided input too
    windows = np.lib.stride_tricks.sliding_window_view(pixels, (PATCH, PATCH), axis=(0, 1))
    windows = windows[::stride, ::stride]
    expected = windows.transpose(0, 1, 3, 4, 2).reshape(-1, 192)
    got = extract_patches(pixels, stride)
    assert got.dtype == pixels.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_extract_patches_keeps_the_image_dtype():
    img = _random_image(np.random.default_rng(22), 32, 24)
    patches = extract_patches(img, 4)
    assert patches.dtype == np.uint8
    as_float = extract_patches(img.pixels.astype(np.float64), 4)
    assert as_float.dtype == np.float64 and np.array_equal(patches, as_float)


# --- scaling / gcn ---


def test_scale_and_gcn_of_bytes_equal_their_float64_cast_bitwise():
    raw = extract_patches(_random_image(np.random.default_rng(23), 40, 40), 4)
    raw[0] = 91  # a constant patch takes the GCN guard
    cast = raw.astype(np.float64)
    for fn in (scale_to_pm1, gcn):
        out = fn(raw)
        assert out.dtype == np.float64
        assert out.tobytes() == fn(cast).tobytes()


# two blocks of the smallest size the blocking cuts, then 5 and 12 blocks
TALL_ROWS = [dataset._ROW_BLOCK + 1, 4097, 12283]


@pytest.mark.parametrize("rows", TALL_ROWS)
def test_row_blocked_gcn_and_whitening_equal_one_pass_bitwise(rows):
    # a tall matrix is processed in blocks; the bits must be the one-pass bits
    raw = np.random.default_rng(24).integers(0, 256, size=(rows, 48), dtype=np.uint8)
    raw[7] = 200  # a constant row takes the guard
    x = raw.astype(np.float64)
    one_pass = (x - x.mean(axis=-1, keepdims=True)) / (x.std(axis=-1, keepdims=True) + GCN_GUARD)
    white = gcn(raw)
    assert white.tobytes() == one_pass.tobytes()
    t = zca_fit(white[:2000])
    assert zca_apply(t, white).tobytes() == ((white - t.mean) @ t.matrix.T).tobytes()


def test_gcn_of_a_tall_matrix_holds_block_sized_temporaries():
    # every float64 temporary is one block of rows, worked on in place; the
    # full-size result is the only large allocation
    raw = np.random.default_rng(27).integers(0, 256, size=(16384, 48), dtype=np.uint8)
    tracemalloc.start()
    try:
        out = gcn(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes


@pytest.mark.parametrize("rows", [50, *TALL_ROWS])
def test_whitening_in_place_equals_out_of_place_bitwise(rows):
    # one block, and more than one: each block is computed whole before it is stored
    normalised = gcn(np.random.default_rng(25).integers(0, 256, size=(rows, 48), dtype=np.uint8))
    t = zca_fit(normalised[:2000])
    expected = zca_apply(t, normalised)
    assert zca_apply(t, normalised, out=normalised) is normalised
    assert normalised.tobytes() == expected.tobytes()


def test_zca_fit_on_a_handed_over_array_equals_a_fit_on_a_copy():
    x = gcn(np.random.default_rng(26).integers(0, 256, size=(600, 48), dtype=np.uint8))
    before = x.copy()
    kept = zca_fit(x)
    assert x.tobytes() == before.tobytes()  # not handed over: left as it was
    handed = zca_fit(x, overwrite_input=True)
    for field in ("mean", "matrix"):
        assert getattr(handed, field).tobytes() == getattr(kept, field).tobytes()
    assert x.tobytes() == (before - kept.mean).tobytes()  # centred in place


def test_scale_to_pm1_endpoints():
    assert scale_to_pm1(0) == -1.0
    assert scale_to_pm1(255) == 1.0
    assert scale_to_pm1(127) == pytest.approx(-0.00392156862745097, rel=1e-12)
    x = np.array([0.0, 127.5, 255.0])
    assert scale_to_pm1(x).tolist() == [-1.0, 0.0, 1.0]
    assert x.tolist() == [0.0, 127.5, 255.0]  # a float64 input is copied, not scaled in place


def test_gcn_constant_patch_is_zero():
    assert np.array_equal(gcn(np.full(192, 37.0)), np.zeros(192))


def test_gcn_two_value_patch():
    patch = np.array([0.0] * 96 + [2.0] * 96)
    out = gcn(patch)
    assert np.allclose(out, np.array([-1.0] * 96 + [1.0] * 96), atol=1e-7)


def test_gcn_output_mean_zero():
    rng = np.random.default_rng(5)
    out = gcn(rng.uniform(0, 255, size=192))
    assert abs(out.mean()) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(0, 2**31 - 1),
)
def test_property_gcn_affine_invariance(a, b, seed):
    x = np.random.default_rng(seed).uniform(0, 255, size=48)
    assert np.allclose(gcn(a * x + b), gcn(x), atol=1e-6)


# --- zca ---


def test_zca_on_already_white_toy():
    # four points at (+-1, +-1): population covariance is the identity
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    t = zca_fit(pts)
    assert t.epsilon == ZCA_EPSILON == 1e-5
    assert np.allclose(t.matrix, np.eye(2) / np.sqrt(1.0 + ZCA_EPSILON), atol=1e-12)
    assert np.allclose(t.mean, [0.0, 0.0], atol=1e-12)


def test_zca_whitens_fitting_population():
    # byte-scale patch population: every covariance eigenvalue is well above
    # epsilon, so the whitened covariance is the identity to 1e-6
    imgs = generate_base_images(80, 64, seed=6)
    data = np.concatenate([extract_patches(im, 8) for im in imgs])[:5000]
    t = zca_fit(data)
    white = zca_apply(t, data)
    cov = white.T @ white / white.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-6
    assert np.all(np.diag(cov) >= 0.9) and np.all(np.diag(cov) <= 1.0)


def test_zca_apply_to_mean_is_zero():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(100, 5))
    t = zca_fit(data)
    assert np.allclose(zca_apply(t, t.mean), np.zeros(5), atol=1e-12)


def test_zca_matrix_symmetric():
    rng = np.random.default_rng(8)
    t = zca_fit(rng.normal(size=(300, 20)))
    assert np.abs(t.matrix - t.matrix.T).max() < 1e-8


# --- perturbation / synthesis ---


def test_identity_perturbation_is_byte_exact():
    img = generate_base_images(1, 16, seed=11)[0]
    mapped, clamped = perturb_image(img, StainPerturbation())
    assert clamped == 0
    assert np.array_equal(mapped.pixels, img.pixels)


def test_rotation_composes_to_identity():
    img = generate_base_images(1, 16, seed=12)[0]
    once, _ = perturb_image(img, StainPerturbation(rotation=np.pi))
    twice, _ = perturb_image(once, StainPerturbation(rotation=np.pi))
    diff = twice.pixels.astype(int) - img.pixels.astype(int)
    assert np.abs(diff).max() <= 1


def test_chromatic_only_preserves_density_plane():
    img = generate_base_images(1, 24, seed=13)[0]
    pert = StainPerturbation(rotation=0.3, scale=(1.05, 0.95), offset=(0.02, -0.02))
    mapped, clamped = perturb_image(img, pert)
    assert clamped == 0
    d_base = hsd_forward(rgb_to_od(img.pixels)).density
    d_mapped = hsd_forward(rgb_to_od(mapped.pixels)).density
    # bound the deviation by two 8-bit quantisation steps in density units:
    # a one-count change at byte value v moves that channel's OD by
    # ln((v+2)/(v+1)), and density averages three channels
    v = np.maximum(img.pixels.astype(np.float64), mapped.pixels.astype(np.float64))
    step = np.log((257.0 - v) / (256.0 - v)).mean(axis=-1)
    assert np.all(np.abs(d_mapped - d_base) < 2.0 * step)


def test_synth_identity_domains_byte_identical():
    base = generate_base_images(3, 16, seed=14)
    ds = synth_triplets(base, {"B": StainPerturbation()}, seed=14)
    for triplet in ds.triplets:
        assert np.array_equal(triplet["A"].pixels, triplet["B"].pixels)


def test_synth_manifest_and_validation():
    base = generate_base_images(2, 16, seed=15)
    perts = {"B": StainPerturbation(rotation=0.2), "C": StainPerturbation(rotation=-0.2)}
    ds = synth_triplets(base, perts, seed=15)
    assert ds.domain_ids == ["A", "B", "C"]
    assert ds.manifest["generator"]["seed"] == 15
    assert "clamp_count" in ds.manifest["generator"]
    with pytest.raises(ValueError):
        synth_triplets(base, {"A": StainPerturbation()}, seed=0)


def test_triplet_dataset_invariants():
    rng = np.random.default_rng(16)
    good = {"A": _random_image(rng), "B": _random_image(rng)}
    with pytest.raises(ValueError):
        TripletDataset(domain_ids=["A", "B"], triplets=[{"A": good["A"]}])
    with pytest.raises(ValueError):
        TripletDataset(
            domain_ids=["A", "B"],
            triplets=[{"A": good["A"], "B": _random_image(rng, 8, 8)}],
        )
    small = {"A": _random_image(rng, 8, 8), "B": _random_image(rng, 8, 8)}
    with pytest.raises(ValueError, match="one image size"):  # across triplets too
        TripletDataset(domain_ids=["A", "B"], triplets=[good, small])


# --- split ---


def test_split_order_cuts_one_permutation():
    order = np.random.default_rng(3).permutation(21)
    parts = split_order(21, [0.75, 0.05], 3)
    assert [len(part) for part in parts] == [16, 1, 4]
    assert np.array_equal(np.concatenate(parts), order)
    train, test = split_order(5, [0.8], 3)
    assert len(train) == 4 and len(test) == 1


def test_split_20000_by_08():
    # count arithmetic only; images are shared references so this stays cheap
    img = _random_image(np.random.default_rng(17), 4, 4)
    ds = TripletDataset(domain_ids=["A"], triplets=[{"A": img}] * 20000)
    train, test = split(ds, seed=1)
    assert len(train) == 16000 and len(test) == 4000


def test_split_disjoint_exhaustive_deterministic():
    base = generate_base_images(10, 8, seed=18)
    ds = synth_triplets(base, {"B": StainPerturbation(rotation=0.1)}, seed=18)
    train, test = split(ds, seed=5)
    assert len(train) == 8 and len(test) == 2
    ids = lambda part: {id(t["A"]) for t in part.triplets}
    assert not (ids(train) & ids(test))
    assert ids(train) | ids(test) == ids(ds)
    train2, test2 = split(ds, seed=5)
    assert ids(train) == ids(train2) and ids(test) == ids(test2)


def test_split_empty():
    with pytest.raises(ValueError):
        split(TripletDataset(domain_ids=["A"], triplets=[]), 0)


# --- dataset io ---


def test_save_load_dataset_roundtrip(tmp_path):
    base = generate_base_images(3, 16, seed=20)
    ds = synth_triplets(base, {"B": StainPerturbation(rotation=0.15)}, seed=20)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.domain_ids == ds.domain_ids
    assert len(back) == len(ds)
    for t1, t2 in zip(ds.triplets, back.triplets):
        for d in ds.domain_ids:
            assert np.array_equal(t1[d].pixels, t2[d].pixels)


def test_load_dataset_rejects_an_empty_listing(tmp_path):
    (tmp_path / "manifest.json").write_text('{"domains": ["A", "B"], "triplets": []}')
    with pytest.raises(UsageError, match=r"manifest\.json.*'triplets' is empty"):
        load_dataset(tmp_path)


def test_generate_base_images_deterministic():
    a = generate_base_images(2, 16, seed=21)
    b = generate_base_images(2, 16, seed=21)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))


# --- image sets: the rows of one mapped block ---


def _mapping(pixels):
    """The mmap under an array: the end of its chain of bases, a memoryview of it."""
    base = pixels
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj


def _assert_one_mapped_block(images):
    """Each image's pixels are a C-contiguous row of one block that fills its own mapping."""
    mapping = _mapping(images[0].pixels)
    assert isinstance(mapping, mmap.mmap)
    assert len(mapping) == len(images) * images[0].pixels.nbytes
    start = images[0].pixels.__array_interface__["data"][0]
    for i, image in enumerate(images):
        assert image.pixels.flags.c_contiguous
        assert _mapping(image.pixels) is mapping
        assert image.pixels.__array_interface__["data"][0] == start + i * image.pixels.nbytes


def _pixel_digest(images):
    return hashlib.sha256(b"".join(image.pixels.tobytes() for image in images)).hexdigest()


def test_mapped_array_is_zeroed_and_released_with_its_last_view():
    block = mapped_array((3, 4, 2), np.float32)
    assert block.shape == (3, 4, 2) and block.dtype == np.float32 and not block.any()
    row = block[1]
    released = weakref.ref(_mapping(row))
    del block
    assert released() is not None  # a row keeps the whole block
    del row
    assert released() is None
    assert mapped_array((0, 8, 8, 3), np.uint8).shape == (0, 8, 8, 3)  # nothing to map


def test_generated_images_are_rows_of_one_block_with_unchanged_pixels():
    base = generate_base_images(3, 16, seed=5)
    _assert_one_mapped_block(base)
    # the bytes the generator made as one array per image
    assert _pixel_digest(base) == "38343bba43f787ee7c5e4ee79a32874be955c0ac2b064893975063c59e0860f5"
    ds = synth_triplets(base, dataset.PERTURBATIONS, seed=5)
    assert [t["A"] for t in ds.triplets] == base
    _assert_one_mapped_block([t[d] for d in dataset.PERTURBATIONS for t in ds.triplets])
    for image, triplet in zip(base, ds.triplets):
        for domain, perturbation in dataset.PERTURBATIONS.items():
            assert np.array_equal(triplet[domain].pixels,
                                  perturb_image(image, perturbation)[0].pixels)
    labeled = classifier.generate_labeled_set(2, size=16, seed=3)
    _assert_one_mapped_block(labeled.images)
    assert labeled.labels.tolist() == [0, 0, 1, 1, 2, 2]
    assert _pixel_digest(labeled.images) == (
        "3d773a21becebe1a17c0e9dec0de59cc6d8280b80058aa85d8d26a18509b63a4")


def test_synth_rejects_base_images_of_two_sizes():
    base = [*generate_base_images(1, 16, seed=5), *generate_base_images(1, 8, seed=5)]
    with pytest.raises(ValueError, match="one image size"):
        synth_triplets(base, dataset.PERTURBATIONS, seed=5)


def test_loaded_images_are_rows_of_one_block_given_back_with_the_set(tmp_path):
    base = generate_base_images(3, 16, seed=20)
    names = save_dataset(synth_triplets(base, dataset.PERTURBATIONS, seed=20), tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    images = [t[d] for t in ds.triplets for d in ds.domain_ids]  # in the listing's order
    _assert_one_mapped_block(images)
    for image, name in zip(images, names):
        assert np.array_equal(image.pixels, parse_ppm((tmp_path / "ds" / name).read_bytes()).pixels)
    released = weakref.ref(_mapping(images[0].pixels))
    del ds, images, image
    assert released() is None

    labeled = classifier.generate_labeled_set(2, size=16, seed=3)
    classifier.save_labeled_set(labeled, tmp_path / "labeled")
    back = classifier.load_labeled_set(tmp_path / "labeled")
    _assert_one_mapped_block(back.images)
    for i, image in enumerate(back.images):
        data = (tmp_path / "labeled" / f"image_{i:05d}.ppm").read_bytes()
        assert np.array_equal(image.pixels, parse_ppm(data).pixels)
