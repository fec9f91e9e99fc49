"""RGB/optical-density conversion, the HSD colour transform, and SSIM.

Optical density follows Beer-Lambert: od = -ln((v + 1) / 256) for an 8-bit
channel value v.  The +1 guard keeps the map total (v = 0 stays finite) and
v = 255 maps to exactly zero density.

The HSD transform splits optical density into two chromatic coordinates
(c_x, c_y) and a density component (the per-pixel mean OD, a proxy for
tissue structure independent of stain hue):

    c_x = od_r / I - 1          c_y = (od_g - od_b) / (sqrt(3) * I)

with I the mean OD across channels.  Pixels with I below a small threshold
carry no usable chroma and are flagged as background.

SSIM (Wang et al. 2004) uses a uniform window at stride 1.  Its window sums
come from summed-area tables (Crow 1984), so each output pixel costs O(1)
whatever the window size.
"""

from dataclasses import dataclass

import numpy as np

SQRT3 = np.sqrt(3.0)

#: mean-OD threshold below which a pixel counts as background (near-white).
BACKGROUND_DENSITY_EPS = 1e-4

#: SSIM window side and stabilising constants (Wang et al. 2004).
SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03


#: the optical density of each byte value, as ``rgb_to_od`` computes it for float input
_BYTE_OD = -np.log((np.arange(256.0) + 1.0) / 256.0)


def rgb_to_od(rgb):
    """Map 8-bit channel values (..., 3) to optical densities.

    A uint8 array is looked up in a 256-entry table, which gives the same bits as the
    float path; other input is converted to float64 and must lie in [0, 255].
    """
    arr = np.asarray(rgb)
    if arr.shape[-1] != 3:
        raise ValueError("expected RGB triples along the last axis")
    if arr.dtype == np.uint8:
        return _BYTE_OD.take(arr)
    arr = arr.astype(np.float64, copy=False)
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("channel values must lie in [0, 255]")
    return -np.log((arr + 1.0) / 256.0)


def od_to_rgb(od, work=None):
    """Inverse of ``rgb_to_od`` with rounding and clamping to 8-bit range.

    The float steps are worked in place in ``work`` when it is given, a float64 array
    of ``od``'s shape that may be ``od`` itself, so no float array is made.
    """
    arr = np.asarray(od, dtype=np.float64)
    values = np.negative(arr, out=work)
    np.exp(values, out=values)
    values *= 256.0
    values -= 1.0
    np.rint(values, out=values)
    np.clip(values, 0, 255, out=values)
    return values.astype(np.uint8)


@dataclass
class HsdImage:
    """Per-pixel chromatic coordinates and density planes (any shape)."""

    c_x: np.ndarray
    c_y: np.ndarray
    density: np.ndarray
    background: np.ndarray  # bool mask of near-zero-density pixels


def hsd_forward(od):
    """Optical densities (..., 3) -> HSD planes.

    Background pixels (mean OD below ``BACKGROUND_DENSITY_EPS``) get c_x = c_y = 0
    and are flagged; their density is kept as-is.
    """
    arr = np.asarray(od, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValueError("expected OD triples along the last axis")
    if arr.min() < -0.0:
        raise ValueError("optical densities must be non-negative")
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    density = (r + g + b) / 3.0
    background = density < BACKGROUND_DENSITY_EPS
    safe = np.where(background, 1.0, density)
    # (2r - g - b)/(3I) == r/I - 1, but is exactly zero for grey pixels.
    c_x = np.where(background, 0.0, (2.0 * r - g - b) / (3.0 * safe))
    c_y = np.where(background, 0.0, (g - b) / (SQRT3 * safe))
    return HsdImage(c_x=c_x, c_y=c_y, density=density, background=background)


def hsd_inverse_clamped(hsd, out=None):
    """HSD planes -> optical densities (..., 3), negatives clamped to zero.

    Returns the densities and the number of pixels that had a channel below
    zero (beyond round-off), i.e. chromatic coordinates outside the OD gamut.
    The three channels are worked out as planes of ``out`` when it is given, a
    float64 ``(3, ...)`` array apart from the input planes, and of a new one
    otherwise; the densities returned are a view of it, so no other array of
    their size is made.
    """
    c_x = np.asarray(hsd.c_x, dtype=np.float64)
    c_y = np.asarray(hsd.c_y, dtype=np.float64)
    density = np.asarray(hsd.density, dtype=np.float64)
    if out is None:
        out = np.empty((3, *np.broadcast_shapes(c_x.shape, c_y.shape, density.shape)))
    od_r, od_g, od_b = (out[i, ...] for i in range(3))  # views, 0-d ones included
    # od_r = density * (c_x + 1) and od_g, od_b = density * (3 - (c_x + 1) ± sqrt(3) c_y) / 2,
    # each in the steps of that expression: factoring density out keeps grey pixels
    # (c_x = c_y = 0) exact.  od_r holds sqrt(3) c_y until od_g and od_b have read it.
    np.add(c_x, 1.0, out=od_b)
    np.subtract(3.0, od_b, out=od_b)
    np.multiply(SQRT3, c_y, out=od_r)
    np.add(od_b, od_r, out=od_g)
    np.subtract(od_b, od_r, out=od_b)
    for plane in (od_g, od_b):
        plane *= density
        plane /= 2.0
    np.add(c_x, 1.0, out=od_r)
    od_r *= density
    clamped = int(np.count_nonzero((out < -1e-12).any(axis=0)))
    np.maximum(out, 0.0, out=out)
    return np.moveaxis(out, 0, -1), clamped


def ssim(a, b):
    """Mean local structural similarity between two single-channel images.

    The window is ``SSIM_WINDOW`` square and the dynamic range the pair's
    maximum.  Window statistics come from summed-area tables of a, b, a², b²
    and ab.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"images must be 2-d and equal-shaped, got {a.shape} vs {b.shape}")
    w = SSIM_WINDOW
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(f"image {a.shape} smaller than {w}x{w} window")
    dyn = max(float(a.max()), float(b.max()))
    if dyn <= 0:
        dyn = 1.0  # degenerate pair (all-zero images): constants only
    c1 = (SSIM_K1 * dyn) ** 2
    c2 = (SSIM_K2 * dyn) ** 2
    if c1 * c2 < np.finfo(float).tiny:
        # near-zero range: the score would underflow to 0/0; SSIM is unchanged
        # when the images and the range are scaled together, so use unit range
        a, b = a / dyn, b / dyn
        c1, c2 = SSIM_K1**2, SSIM_K2**2

    # The tables' rounding error grows with their running sums, so both
    # images are first shifted by the pair's mean.  The shift cancels in the
    # variances and the covariance and is added back to the means.
    shift = 0.5 * (a.mean() + b.mean())
    # Zero first row and column: table[:, i, j] sums plane[:i, :j].
    table = np.zeros((5, a.shape[0] + 1, a.shape[1] + 1))
    inner = table[:, 1:, 1:]
    np.subtract(a, shift, out=inner[0])
    np.subtract(b, shift, out=inner[1])
    np.multiply(inner[0], inner[0], out=inner[2])
    np.multiply(inner[1], inner[1], out=inner[3])
    np.multiply(inner[0], inner[1], out=inner[4])
    np.cumsum(table, axis=1, out=table)
    np.cumsum(table, axis=2, out=table)
    sums = table[:, w:, w:] - table[:, :-w, w:] - table[:, w:, :-w] + table[:, :-w, :-w]
    mu_a, mu_b, sq_a, sq_b, ab = sums / (w * w)
    var_a = sq_a - mu_a * mu_a
    var_b = sq_b - mu_b * mu_b
    cov = ab - mu_a * mu_b
    mu_a += shift
    mu_b += shift
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())
