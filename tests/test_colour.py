import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from staininv import dataset
from staininv.colour import (
    SQRT3,
    SSIM_K1,
    SSIM_K2,
    SSIM_WINDOW,
    HsdImage,
    hsd_forward,
    hsd_inverse_clamped,
    od_to_rgb,
    rgb_to_od,
    ssim,
)
from staininv.metrics import density_ssim_table

od_values = st.floats(min_value=0.01, max_value=4.0, allow_nan=False)


def test_od_white_is_zero():
    assert np.array_equal(rgb_to_od([255, 255, 255]), [0.0, 0.0, 0.0])


def test_od_black():
    expected = -math.log(1.0 / 256.0)  # 5.545177444479562
    assert np.allclose(rgb_to_od([0, 0, 0]), expected, atol=1e-12)


def test_od_monotone_decreasing():
    ods = rgb_to_od(np.stack([np.arange(256)] * 3, axis=-1))[:, 0]
    assert np.all(np.diff(ods) < 0)


def test_od_rejects_out_of_range():
    with pytest.raises(ValueError):
        rgb_to_od([0, 0, 256])


def test_od_rgb_roundtrip_exact_on_bytes():
    rgb = np.stack([np.arange(256)] * 3, axis=-1).astype(np.uint8)
    assert np.array_equal(od_to_rgb(rgb_to_od(rgb)), rgb)


def test_od_byte_table_matches_the_float_path_on_every_byte():
    rgb = np.stack([np.arange(256)] * 3, axis=-1).astype(np.uint8)
    image = np.random.default_rng(4).permutation(rgb.reshape(-1)).reshape(16, 16, 3)
    for pixels in (rgb, image):
        od = rgb_to_od(pixels)
        assert od.dtype == np.float64 and od.shape == pixels.shape
        assert od.tobytes() == rgb_to_od(pixels.astype(np.float64)).tobytes()


def test_hsd_grey_pixel_exact():
    for a in (0.017, 0.3, 1.7321, 2.55):
        hsd = hsd_forward([a, a, a])
        assert hsd.c_x == 0.0 and hsd.c_y == 0.0
        assert hsd.density == pytest.approx(a, rel=1e-15)
        assert not hsd.background


def test_hsd_forward_hand_values():
    hsd = hsd_forward([0.4, 0.2, 0.2])
    assert hsd.density == pytest.approx(0.8 / 3.0, rel=1e-12)
    assert hsd.c_x == pytest.approx(0.5, rel=1e-12)
    assert hsd.c_y == pytest.approx(0.0, abs=1e-15)

    hsd = hsd_forward([0.3, 0.4, 0.2])
    assert hsd.density == pytest.approx(0.3, rel=1e-12)
    assert hsd.c_x == pytest.approx(0.0, abs=1e-12)
    assert hsd.c_y == pytest.approx(0.2 / (math.sqrt(3.0) * 0.3), rel=1e-12)


def test_hsd_background_flag():
    hsd = hsd_forward([0.0, 0.0, 0.0])
    assert hsd.background and hsd.c_x == 0.0 and hsd.c_y == 0.0


def test_hsd_inverse_grey():
    od, clamped = hsd_inverse_clamped(
        HsdImage(np.float64(0), np.float64(0), np.float64(0.7), np.False_)
    )
    assert clamped == 0 and np.array_equal(od, [0.7, 0.7, 0.7])


def test_hsd_inverse_hand_value():
    od, clamped = hsd_inverse_clamped(
        HsdImage(np.float64(0.5), np.float64(0.0), np.float64(0.8 / 3.0), np.False_)
    )
    assert clamped == 0 and np.allclose(od, [0.4, 0.2, 0.2], atol=1e-15)


def test_hsd_inverse_gamut_error():
    bad = HsdImage(np.float64(-1.5), np.float64(0.0), np.float64(1.0), np.False_)
    od, clamped = hsd_inverse_clamped(bad)
    assert clamped == 1 and od.min() == 0.0


def _inverse_by_stacking(hsd):
    """The interleaved form of ``hsd_inverse_clamped``: the oracle of its planar form."""
    c_x = np.asarray(hsd.c_x, dtype=np.float64)
    c_y = np.asarray(hsd.c_y, dtype=np.float64)
    density = np.asarray(hsd.density, dtype=np.float64)
    od_r = density * (c_x + 1.0)
    od_g = density * (3.0 - (c_x + 1.0) + SQRT3 * c_y) / 2.0
    od_b = density * (3.0 - (c_x + 1.0) - SQRT3 * c_y) / 2.0
    od = np.stack([od_r, od_g, od_b], axis=-1)
    clamped = int(np.count_nonzero((od < -1e-12).any(axis=-1)))
    return np.maximum(od, 0.0), clamped


@pytest.mark.parametrize("shape", [(), (1,), (50,), (9, 13), (4, 8, 8)])
def test_hsd_inverse_planes_match_the_stacked_form_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    # small chroma, where c_x + 1 rounds, and chroma wide enough that every channel leaves
    # the gamut somewhere, with zero densities and grey pixels among them
    hsd = HsdImage(rng.normal(0.0, 1.2, shape), rng.normal(0.0, 1.0, shape),
                   rng.choice([0.0, 0.3, 1.7, 4.0], shape), None)
    if len(shape) > 1:
        hsd.c_x.flat[0] = hsd.c_y.flat[0] = 0.0
    want, want_clamped = _inverse_by_stacking(hsd)
    for out in (None, np.full((3, *shape), np.nan)):
        got, clamped = hsd_inverse_clamped(hsd, out=out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert clamped == want_clamped
    assert want_clamped > 0 or np.size(hsd.density) < 2


def test_od_to_rgb_worked_in_place_matches_the_expression_bit_for_bit():
    od = np.random.default_rng(3).uniform(0.0, 6.0, (5, 7, 3))
    want = np.clip(np.rint(256.0 * np.exp(-od) - 1.0), 0, 255).astype(np.uint8)
    assert od_to_rgb(od).tobytes() == want.tobytes()
    assert od_to_rgb(od, work=np.empty_like(od)).tobytes() == want.tobytes()
    handed_over = od.copy()
    assert od_to_rgb(handed_over, work=handed_over).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(od_values, od_values, od_values)
def test_property_hsd_roundtrip(r, g, b):
    od = np.array([r, g, b])
    back, clamped = hsd_inverse_clamped(hsd_forward(od))
    assert clamped == 0 and np.max(np.abs(back - od)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(od_values, od_values, od_values, st.floats(min_value=0.1, max_value=5.0))
def test_property_hsd_scale_invariance(r, g, b, lam):
    base = hsd_forward(np.array([r, g, b]))
    scaled = hsd_forward(lam * np.array([r, g, b]))
    assert scaled.c_x == pytest.approx(base.c_x, rel=1e-9, abs=1e-12)
    assert scaled.c_y == pytest.approx(base.c_y, rel=1e-9, abs=1e-12)
    assert scaled.density == pytest.approx(lam * base.density, rel=1e-9)


# --- ssim ---


def _brute_force_ssim(a, b):
    """Independent windowed SSIM: explicit loops, population statistics."""
    window = SSIM_WINDOW
    dyn = max(a.max(), b.max())
    c1, c2 = (SSIM_K1 * dyn) ** 2, (SSIM_K2 * dyn) ** 2
    h, w = a.shape
    scores = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            wa = a[i : i + window, j : j + window]
            wb = b[i : i + window, j : j + window]
            mu_a, mu_b = wa.mean(), wb.mean()
            va, vb = wa.var(), wb.var()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(scores))


def test_ssim_identical_images_exactly_one():
    rng = np.random.default_rng(8)
    img = rng.uniform(0.0, 2.0, size=(16, 12))
    assert ssim(img, img) == 1.0


@pytest.mark.parametrize("scale", [1e-160, 1e-300, 5e-324])
def test_ssim_tiny_range_is_finite_and_scale_invariant(scale):
    # the pair's constants underflow at this range; SSIM ignores a common scale
    rng = np.random.default_rng(9)
    img = rng.uniform(0.0, 2.0, size=(12, 12))
    tiny = np.full((8, 8), scale)
    assert ssim(tiny, tiny) == 1.0
    if scale == 1e-160:
        other = rng.uniform(0.0, 2.0, size=(12, 12))
        score = ssim(img * scale, other * scale)
        assert np.isfinite(score)
        assert score == pytest.approx(ssim(img, other), rel=1e-12)


def test_ssim_constant_images_closed_form():
    a_val, b_val = 0.8, 0.3
    a = np.full((10, 10), a_val)
    b = np.full((10, 10), b_val)
    dyn = 0.8
    c1 = (0.01 * dyn) ** 2
    expected = (2 * a_val * b_val + c1) / (a_val**2 + b_val**2 + c1)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-12)


def test_ssim_matches_brute_force_and_inversion_low():
    rng = np.random.default_rng(9)
    img = rng.uniform(0.0, 1.0, size=(14, 14))
    inverted = 1.0 - img
    expected = _brute_force_ssim(img, inverted)
    got = ssim(img, inverted)
    assert got == pytest.approx(expected, rel=1e-10)
    assert got < 0.5


def test_ssim_symmetry():
    rng = np.random.default_rng(10)
    a = rng.uniform(0.0, 3.0, size=(12, 12))
    b = rng.uniform(0.0, 3.0, size=(12, 12))
    assert ssim(a, b) == ssim(b, a)


def test_ssim_shape_errors():
    with pytest.raises(ValueError):
        ssim(np.zeros((10, 10)), np.zeros((10, 11)))
    with pytest.raises(ValueError):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)))  # smaller than the window


@pytest.mark.parametrize(
    "shape",
    # many windows; one window; a window that fills the height, then the width
    [(32, 32), (20, 13), (8, 8), (8, 13), (13, 8)],
)
def test_ssim_summed_area_matches_brute_force(shape):
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.5, size=shape)
    b = np.clip(a + rng.normal(0.0, 0.2, size=shape), 0.0, None)
    assert abs(ssim(a, b) - _brute_force_ssim(a, b)) <= 1e-12


@st.composite
def _image_pairs(draw):
    h = draw(st.integers(SSIM_WINDOW, 24))
    w = draw(st.integers(SSIM_WINDOW, 24))
    # Zero (background) plus densities on the scale of real OD planes.
    values = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))
    a = draw(arrays(np.float64, (h, w), elements=values))
    b = draw(arrays(np.float64, (h, w), elements=values))
    return a, b


@settings(max_examples=200, deadline=None)
@given(_image_pairs())
def test_property_ssim_symmetric_and_self_one(pair):
    a, b = pair
    assert ssim(a, b) == ssim(b, a)
    assert ssim(a, a) == 1.0


def _sliding_window_ssim(a, b):
    """The former implementation: O(w²) window means over strided views."""
    w = SSIM_WINDOW
    dyn = max(float(a.max()), float(b.max()))
    c1, c2 = (SSIM_K1 * dyn) ** 2, (SSIM_K2 * dyn) ** 2
    win_a = np.lib.stride_tricks.sliding_window_view(a, (w, w))
    win_b = np.lib.stride_tricks.sliding_window_view(b, (w, w))
    mu_a = win_a.mean(axis=(2, 3))
    mu_b = win_b.mean(axis=(2, 3))
    var_a = (win_a * win_a).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (win_b * win_b).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (win_a * win_b).mean(axis=(2, 3)) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def test_density_ssim_table_matches_sliding_window_formula():
    base = dataset.generate_base_images(8, 32, seed=21)
    ds = dataset.synth_triplets(base, dataset.PERTURBATIONS, seed=21)
    table = density_ssim_table(ds)
    assert [row["pair"] for row in table] == ["A-B", "A-C", "B-C"]
    for row in table:
        first, second = row["pair"].split("-")
        scores = [
            _sliding_window_ssim(
                hsd_forward(rgb_to_od(t[first].pixels)).density,
                hsd_forward(rgb_to_od(t[second].pixels)).density,
            )
            for t in ds.triplets
        ]
        assert abs(row["mean"] - np.mean(scores)) <= 1e-12
        assert abs(row["std"] - np.std(scores)) <= 1e-12
