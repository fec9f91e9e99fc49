import dataclasses
import hashlib
import json
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staininv import classifier, dataset
from staininv.colour import hsd_forward, hsd_inverse_clamped, od_to_rgb, rgb_to_od
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
    load_listed_images,
    mapped_array,
    parse_ppm,
    save_dataset,
    save_ppm,
    scale_to_pm1,
    split,
    split_order,
    synth_triplets,
    zca_apply,
    zca_fit,
)
from staininv.numerics import derive_seed
from staininv.persist import UsageError


def _random_image(rng, h=16, w=16):
    return Image(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


# --- ppm ---


def _read_set(path, count, listing="listing.json"):
    """The images of one multi-image file, as ``load_listed_images`` reads them."""
    return list(load_listed_images(listing, [path], count)[0])


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = [_random_image(rng) for _ in range(3)]
    path = tmp_path / "img.ppm"
    save_ppm(images, path)
    back = _read_set(path, 3)
    assert all(np.array_equal(a, b.pixels) for a, b in zip(back, images))
    data = path.read_bytes()
    pos = 0
    for image in images:  # the file is the images' P6 streams, back to back
        parsed, end = parse_ppm(data, pos)
        assert np.array_equal(parsed.pixels, image.pixels)
        assert data[pos:end] == b"P6\n16 16\n255\n" + image.pixels.tobytes()
        pos = end
    assert pos == len(data)


def test_ppm_white_pixel_bytes(tmp_path):
    img = Image(np.full((1, 1, 3), 255, dtype=np.uint8))
    path = tmp_path / "white.ppm"
    save_ppm([img, img], path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff" * 2


def test_ppm_truncated_payload_names_counts():
    data = b"P6\n2 2\n255\n" + b"\x00" * 5
    with pytest.raises(PpmParseError, match="expected 12 bytes, got 5"):
        parse_ppm(data)


def test_ppm_bad_magic_offset():
    with pytest.raises(PpmParseError, match="byte offset 0"):
        parse_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PpmParseError, match="byte offset 14"):  # offsets count from the start
        parse_ppm(b"P6\n1 1\n255\n\x00\x00\x00P5\n1 1\n255\n\x00", 14)


def test_ppm_bad_token_offset():
    err = None
    try:
        parse_ppm(b"P6\nxy 1\n255\n")
    except PpmParseError as exc:
        err = exc
    assert err is not None and err.offset == 3


def test_ppm_comments_in_header():
    img, end = parse_ppm(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03trailing")
    assert img.pixels.tolist() == [[[1, 2, 3]]]
    assert end == 26


#: (operation, position, byte) edits applied in order to a valid two-image stream; the
#: bytes favour those that steer the header tokenizer
_PPM_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 96),
        st.sampled_from(list(b"0123456789 \t\n\r#-+_Px\x00\xff")),
    ),
    max_size=4,
)


@settings(max_examples=600, deadline=None)
@given(
    sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=2, max_size=2),
    edits=_PPM_EDITS,
    raw=st.none() | st.binary(max_size=96),
)
def test_property_parse_ppm_raises_only_ppm_parse_error(sizes, edits, raw):
    # a mutated stream of two valid images, or raw bytes: parsed image by image, each
    # step gives an Image and the next offset, or a PpmParseError
    data = bytearray(raw if raw is not None else b"")
    if raw is None:
        for width, height in sizes:
            data += b"P6\n%d %d\n255\n" % (width, height) + bytes(range(3 * width * height))
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
    data, pos = bytes(data), 0
    for _ in sizes:
        try:
            image, end = parse_ppm(data, pos)
        except PpmParseError as exc:
            assert pos <= exc.offset <= len(data)
            return
        assert isinstance(image, Image)
        assert pos < end <= len(data)
        pos = end


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


def perturb_image(image, perturbation):
    """One image's stain perturbation as (image, clamp count), step by step: the reference
    of ``dataset.perturb_block``, which takes the same steps a chunk of images at a time."""
    hsd = hsd_forward(rgb_to_od(image.pixels))
    cos_t = np.cos(perturbation.rotation)
    sin_t = np.sin(perturbation.rotation)
    c_x = cos_t * hsd.c_x - sin_t * hsd.c_y
    c_y = sin_t * hsd.c_x + cos_t * hsd.c_y
    c_x = c_x * perturbation.scale[0] + perturbation.offset[0]
    c_y = c_y * perturbation.scale[1] + perturbation.offset[1]
    density = hsd.density * perturbation.density_gain
    od, clamped = hsd_inverse_clamped(
        dataclasses.replace(hsd, c_x=c_x, c_y=c_y, density=density))
    return Image(od_to_rgb(od)), clamped


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
    with pytest.raises(ValueError, match="^reference domain must not carry a perturbation$"):
        synth_triplets(base, {"A": StainPerturbation()}, seed=0)


#: the synthetic domains and a twin whose density gain is not 1
GAINED = {**dataset.PERTURBATIONS, "D": StainPerturbation(
    rotation=0.2, scale=(1.1, 0.9), offset=(0.05, -0.03), density_gain=1.4)}


def test_chunked_synth_matches_the_per_image_reference_bit_for_bit():
    # 70 triplets are two full chunks and a short one
    base = generate_base_images(70, 32, seed=1)
    ds = synth_triplets(base, GAINED, seed=1)
    total = 0
    for domain, perturbation in GAINED.items():
        for triplet, image in zip(ds.triplets, base):
            twin, clamped = perturb_image(image, perturbation)
            assert triplet[domain].pixels.tobytes() == twin.pixels.tobytes()
            total += clamped
    assert ds.manifest["generator"]["clamp_count"] == total > 0


def test_perturb_block_counts_the_clamped_pixels_of_every_chunk():
    base = generate_base_images(2 * dataset._PAINT_CHUNK + 6, 8, seed=2)
    out = mapped_array((len(base), 8, 8, 3), np.uint8)
    perturbation = StainPerturbation(offset=(-1.2, 0.0))  # takes most pixels out of gamut
    clamped = dataset.perturb_block(base, perturbation, out)
    reference = [perturb_image(image, perturbation) for image in base]
    assert clamped == sum(count for _, count in reference) > 0
    assert out.tobytes() == b"".join(twin.pixels.tobytes() for twin, _ in reference)


def test_perturb_block_rejects_an_image_of_another_size_in_a_later_chunk():
    base = generate_base_images(40, 16, seed=5)
    base[dataset._PAINT_CHUNK + 3] = generate_base_images(1, 8, seed=5)[0]
    with pytest.raises(ValueError, match="one image size"):
        dataset.perturb_block(base, GAINED["B"], mapped_array((40, 16, 16, 3), np.uint8))
    with pytest.raises(ValueError, match="^the images differ in size: a dataset holds one "
                                         "image size$"):
        synth_triplets(base, dataset.PERTURBATIONS, seed=5)


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
    (tmp_path / "manifest.json").write_text(
        '{"domains": ["A", "B"], "paths": {"A": "a.ppm", "B": "b.ppm"}, "triplets": 0}')
    with pytest.raises(UsageError, match=r"manifest\.json: 'triplets' .* >= 1, got 0"):
        load_dataset(tmp_path)


def test_saved_dataset_is_one_file_per_domain_of_the_per_image_streams(tmp_path):
    # the layout pinned: each domain file is, in triplet order, every image's
    # "P6\n{w} {h}\n255\n" header and pixel bytes, which are the bytes of the per-image
    # files of the layout before it (the digests are of those files, concatenated); the
    # manifest names the files and the count.  A labelled set's images.ppm is the same.
    base = generate_base_images(3, 16, seed=20)
    ds = synth_triplets(base, dataset.PERTURBATIONS, seed=20)
    names = save_dataset(ds, tmp_path / "ds")
    assert names == ["domain_A.ppm", "domain_B.ppm", "domain_C.ppm", "manifest.json"]
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == names
    digests = {
        "A": "f9b52166d1d7c0cf2e870cb0fbab373900ffc67c070240210d60cd23da553d6e",
        "B": "d86641ba6490c10539912d5d6f2c6fdec842f3fee8b41c6d801f274362a14e41",
        "C": "16310be85ba36350b6e588682a2a2c0822f9334741b90d7365320e0a4f60cc2b",
    }
    for domain, digest in digests.items():
        data = (tmp_path / "ds" / f"domain_{domain}.ppm").read_bytes()
        assert data == b"".join(b"P6\n16 16\n255\n" + t[domain].pixels.tobytes()
                                for t in ds.triplets)
        assert hashlib.sha256(data).hexdigest() == digest
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["paths"] == {d: f"domain_{d}.ppm" for d in "ABC"}
    assert manifest["triplets"] == 3

    labeled = classifier.generate_labeled_set(2, size=16, seed=3)
    classifier.save_labeled_set(labeled, tmp_path / "labeled")
    data = (tmp_path / "labeled" / "images.ppm").read_bytes()
    assert data == b"".join(b"P6\n16 16\n255\n" + image.pixels.tobytes()
                            for image in labeled.images)
    assert hashlib.sha256(data).hexdigest() == (
        "c4c1061e93c4ec324b89223e982b744274e2fee1e386f869e10d79596e296fe4")


def _grey(side):
    return Image(np.zeros((side, side, 3), np.uint8))


def test_multi_image_file_holding_fewer_images_than_listed(tmp_path):
    first, short = tmp_path / "first.ppm", tmp_path / "short.ppm"
    save_ppm([_grey(8)] * 3, first)
    save_ppm([_grey(8)] * 2, short)  # 203 bytes an image
    with pytest.raises(UsageError) as err:
        load_listed_images("manifest.json", [first, short], 3)
    assert (f"image file {short} holds fewer than the 3 images manifest.json lists in it: it "
            "ends after image 1, at byte offset 406") in str(err.value)
    # the first file of a set is checked before the set's block is made, so a count it
    # could never hold fails at once
    with pytest.raises(UsageError, match=f"{short} holds fewer than the 10000000000 images "
                                         "listing.json lists in it: its 406 bytes hold at "
                                         "most 2 8x8 images"):
        _read_set(short, 10**10)
    short.write_bytes(b"")
    with pytest.raises(UsageError, match=f"{short} holds fewer than the 1 images "
                                         "listing.json lists in it: it is empty"):
        _read_set(short, 1)
    with pytest.raises(UsageError, match=f"cannot read image file {tmp_path / 'absent.ppm'}"):
        _read_set(tmp_path / "absent.ppm", 1)


def test_multi_image_file_with_bytes_after_its_listed_images(tmp_path):
    path = tmp_path / "set.ppm"
    save_ppm([_grey(8), _grey(8)], path)
    with pytest.raises(UsageError, match="has 203 bytes after its 1 listed images "
                                         r"\(byte offset 203\)"):
        _read_set(path, 1)
    path.write_bytes(path.read_bytes() + b"\n")
    with pytest.raises(UsageError, match=f"image file {path} has 1 bytes after its 2 listed "
                                         r"images \(byte offset 406\)"):
        _read_set(path, 2)


def test_truncated_image_in_the_middle_names_file_index_and_offset(tmp_path):
    # the set's second file is the broken one, so the first file's size check passes
    whole, path = tmp_path / "whole.ppm", tmp_path / "set.ppm"
    image = b"P6\n8 8\n255\n" + bytes(192)  # 203 bytes, its pixels at offset 11
    whole.write_bytes(image * 3)
    path.write_bytes(image + image[:13])  # the file ends 2 bytes into image 1's pixels
    with pytest.raises(UsageError) as err:
        load_listed_images("listing.json", [whole, path], 3)
    assert (f"malformed image 1 of {path}: truncated payload: expected 192 bytes, got 2 "
            "(byte offset 214)") in str(err.value)
    # followed by another image, the short image's pixels run into it, and the error is
    # at the offset where the image after the short one would start
    path.write_bytes(image + image[:-100] + image)
    with pytest.raises(UsageError) as err:
        load_listed_images("listing.json", [whole, path], 3)
    assert (f"malformed image 2 of {path}: not a P6 image (magic b'\\x00\\x00') "
            "(byte offset 406)") in str(err.value)


def test_image_of_another_size_partway_through_a_file(tmp_path):
    path = tmp_path / "set.ppm"
    save_ppm([_grey(8), _grey(8), _grey(16), _grey(8)], path)
    with pytest.raises(UsageError) as err:
        _read_set(path, 4, "manifest.json")
    assert (f"malformed dataset listing manifest.json: image 2 of {path} is 16x16 but "
            f"image 0 of {path} is 8x8: the images must have one size") in str(err.value)
    # across files too: the first image of the set fixes the size
    first = tmp_path / "first.ppm"
    save_ppm([_grey(16)] * 4, first)
    with pytest.raises(UsageError, match=f"image 0 of {path} is 8x8 but image 0 of {first} "
                                         "is 16x16"):
        load_listed_images("manifest.json", [first, path], 4)


def test_image_side_not_a_multiple_of_8_names_its_index(tmp_path):
    path = tmp_path / "set.ppm"
    save_ppm([_grey(8), _grey(12)], path)
    with pytest.raises(UsageError, match=f"image 1 of {path} is 12x12: each side must be a "
                                         "multiple of 8"):
        _read_set(path, 2)


def test_reader_gives_back_the_mapped_pages_of_each_window(tmp_path, monkeypatch):
    # the whole file is read, and the pages of each window read are given back in order
    advised = []

    class Recording(mmap.mmap):
        def madvise(self, option, start, length):
            advised.append((option, start, length))
            return super().madvise(option, start, length)

    rng = np.random.default_rng(4)
    images = [_random_image(rng) for _ in range(40)]  # 781 bytes each: 8 windows of 4 KB
    path = tmp_path / "set.ppm"
    save_ppm(images, path)
    monkeypatch.setattr(dataset, "_WINDOW", 4096)
    monkeypatch.setattr(mmap, "mmap", Recording)
    back = load_listed_images("listing", [path], 40)
    assert all(np.array_equal(a, b.pixels) for a, b in zip(back[0], images))
    assert {option for option, _, _ in advised} == {mmap.MADV_DONTNEED}
    starts = [start for _, start, _ in advised]
    assert starts == [0, *np.cumsum([length for _, _, length in advised])[:-1]]
    assert len(advised) >= 4 and all(start % mmap.PAGESIZE == 0 for start in starts)
    assert starts[-1] + advised[-1][2] > 40 * 781 - 2 * 4096


def test_generate_base_images_deterministic():
    a = generate_base_images(2, 16, seed=21)
    b = generate_base_images(2, 16, seed=21)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))


# --- the chunked texture painter against the per-image reference ---


def _paint_blobs(base, rng, count, radius, colours, opacity):
    """The per-image reference: alpha-blend random Gaussian blobs onto a square
    (size, size, 3) image, one ``uniform`` call per value."""
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


def _reference_texture(texture, size, seed):
    """One image of ``texture``, painted alone in (size, size, 3) layout."""
    rng = np.random.default_rng(seed)
    base = np.empty((size, size, 3))
    for ch in range(3):
        base[..., ch] = rng.uniform(*texture.background[ch])
    if texture.wash:
        yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
        wash = rng.uniform(*texture.wash, size=2)
        base += (wash[0] * (xx / size) + wash[1] * (yy / size))[..., None]
    base = _paint_blobs(base, rng, texture.count, texture.radius, texture.colours,
                        texture.opacity)
    base += rng.normal(0.0, texture.noise, size=base.shape)
    return np.clip(np.rint(base), *texture.bounds).astype(np.uint8)


def _assert_painted_as_reference(texture, size, seeds):
    block = mapped_array((len(seeds), size, size, 3), np.uint8)
    dataset.paint_textures(block, texture, seeds)
    for pixels, seed in zip(block, seeds):
        assert pixels.tobytes() == _reference_texture(texture, size, seed).tobytes()


TEXTURES = {"base": dataset.BASE_TEXTURE, **classifier.CLASS_TEXTURES}
CHUNK = dataset._PAINT_CHUNK


@pytest.mark.parametrize("size", [8, 16, 32])
@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("texture", TEXTURES)
def test_painter_matches_the_per_image_reference_bit_for_bit(texture, count, size):
    _assert_painted_as_reference(TEXTURES[texture], size, [1000 * size + i for i in range(count)])


def test_painter_chunk_holding_every_blob_count_matches_the_reference():
    # one image of each count 5..11, in no sorted order
    first = {}
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        rng.random(5)
        first.setdefault(int(rng.integers(*dataset.BASE_TEXTURE.count)), seed)
    assert sorted(first) == list(range(5, 12))
    seeds = [first[c] for c in (8, 5, 11, 7, 6, 10, 9)]
    _assert_painted_as_reference(dataset.BASE_TEXTURE, 16, seeds)


def test_painter_blob_denominator_is_the_python_power_not_the_square():
    r = 3.182658757015062
    power, square = 2.0 * (r / 2.0) ** 2, 2.0 * np.square(r / 2.0)
    assert power != square
    # one blob of radius r on a black noiseless ground: a pixel is alpha * colour, and this
    # colour puts one pixel's value on a rounding boundary between the two denominators
    colour = 18.923014239648108
    texture = dataset.BlobTexture(
        background=((0, 0),) * 3, wash=None, count=(1, 2), radius=(r / 32, r / 32),
        colours=((colour, colour),) * 3, opacity=0.85, noise=0.0, bounds=(0, 255),
    )
    _assert_painted_as_reference(texture, 32, [0])
    block = mapped_array((1, 32, 32, 3), np.uint8)
    dataset.paint_textures(block, texture, [0])
    rng = np.random.default_rng(0)
    rng.random(3)
    rng.integers(1, 2)
    cx, cy = 32.0 * rng.random(6)[:2]
    coords = np.arange(32.0)
    d2 = (coords - cx) ** 2 + ((coords - cy) ** 2)[:, None]
    by_square = np.rint(np.exp(-d2 / square) * 0.85 * colour)
    assert np.count_nonzero(block[0, ..., 0] != by_square) == 1


def test_generators_paint_their_textures_from_their_named_seeds():
    base = generate_base_images(3, 16, seed=4)
    for i, image in enumerate(base):
        assert image.pixels.tobytes() == _reference_texture(
            dataset.BASE_TEXTURE, 16, derive_seed(4, f"base-{i}")).tobytes()
    labeled = classifier.generate_labeled_set(2, size=8, seed=4)
    assert labeled.class_names == list(classifier.CLASS_TEXTURES)
    for k, image in enumerate(labeled.images):
        texture = list(classifier.CLASS_TEXTURES.values())[k // 2]
        assert image.pixels.tobytes() == _reference_texture(
            texture, 8, derive_seed(4, f"labeled-{k // 2}-{k % 2}")).tobytes()


def test_generate_base_images_holds_no_whole_set_float_array():
    # 2,000 32 px images are 49 MB as float64; the uint8 block and the painter's chunk
    # buffers are mappings, which tracemalloc does not trace
    tracemalloc.start()
    try:
        images = generate_base_images(2000, 32, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(images) == 2000
    assert peak < 4 * 2**20


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
    save_dataset(synth_triplets(base, dataset.PERTURBATIONS, seed=20), tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    images = [t[d] for d in ds.domain_ids for t in ds.triplets]  # in the files' order
    _assert_one_mapped_block(images)
    data = b"".join((tmp_path / "ds" / f"domain_{d}.ppm").read_bytes() for d in ds.domain_ids)
    pos = 0
    for image in images:
        parsed, pos = parse_ppm(data, pos)
        assert np.array_equal(image.pixels, parsed.pixels)
    released = weakref.ref(_mapping(images[0].pixels))
    del ds, images, image
    assert released() is None

    labeled = classifier.generate_labeled_set(2, size=16, seed=3)
    classifier.save_labeled_set(labeled, tmp_path / "labeled")
    back = classifier.load_labeled_set(tmp_path / "labeled")
    _assert_one_mapped_block(back.images)
    data, pos = (tmp_path / "labeled" / "images.ppm").read_bytes(), 0
    for image in back.images:
        parsed, pos = parse_ppm(data, pos)
        assert np.array_equal(image.pixels, parsed.pixels)
