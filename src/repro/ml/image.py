"""Small image-processing utilities shared by the ML stack.

Pure NumPy implementations of bilinear resize, luma conversion, and padded
cropping — the operations a stage-1/stage-2 edge pipeline performs on
digital images after readout.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

#: BT.601 luma weights (matches ``repro.sensor.grayscale.LUMA_WEIGHTS``).
_LUMA = np.array([0.299, 0.587, 0.114])


def to_gray(image: np.ndarray) -> np.ndarray:
    """Luma grayscale of an ``(H, W, 3)`` image; 2-D images pass through."""
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] == 3:
        return image @ _LUMA
    if image.ndim == 3 and image.shape[2] == 1:
        return image[:, :, 0]
    raise ValueError(f"expected (H, W[, 3]) image, got shape {image.shape}")


def ensure_channels(image: np.ndarray) -> np.ndarray:
    """Return the image as ``(H, W, C)`` (adds a channel axis to 2-D input)."""
    if image.ndim == 2:
        return image[:, :, None]
    if image.ndim == 3:
        return image
    raise ValueError(f"expected 2-D or 3-D image, got shape {image.shape}")


@lru_cache(maxsize=64)
def _resize_plan(in_hw: tuple[int, int], out_hw: tuple[int, int]):
    """Interpolation plan for one ``(in_hw, out_hw)`` pair, memoized.

    The serving hot path resizes every ROI crop to the classifier input
    size, so the same few shape pairs recur thousands of times; the
    index/weight tables depend only on the shapes, never on the pixels.
    Cached arrays are marked read-only (they are shared across calls) and
    the LRU keeps the footprint bounded — each plan is a few kB.

    Returns:
        ``(rows, cols, row_weights, col_weights)`` — the two source rows of
        every output row stacked as ``[y0, y1]`` (and the columns as
        ``[x0, x1]``), with the matching blend weights ``[1 - fy, fy]``
        and ``[1 - fx, fx]`` shaped to broadcast over the gathered block.
    """
    h, w = in_hw
    oh, ow = out_hw
    # Align-corners=False sampling (pixel centers), standard for resizing.
    ys = (np.arange(oh) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow) + 0.5) * w / ow - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    plan = (
        np.concatenate([y0, y1]),
        np.concatenate([x0, x1]),
        np.concatenate([1 - fy, fy])[:, None, None],
        np.concatenate([1 - fx, fx])[None, :, None],
    )
    for table in plan:
        table.setflags(write=False)
    return plan


def resize_bilinear(image: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resize with edge clamping.

    Interpolation index/weight tables are memoized per ``(in_hw, out_hw)``
    shape pair (:func:`_resize_plan`), which is free on correctness: the
    plan depends only on the shapes, so outputs are bit-identical to an
    uncached resize.  One ``take`` gathers both source rows of every
    output row and a second both source columns, so the four corner
    samples land in one block that is weighted and summed in place — six
    NumPy calls per crop instead of four 2-D fancy-index gathers and nine
    arithmetic passes, with every output element computed by the same
    operations in the same order (``top = q00*(1-fx) + q01*fx``, likewise
    ``bottom``, then ``top*(1-fy) + bottom*fy``).

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` float array with ``H, W >= 1``.
        out_hw: target ``(height, width)``, positive integers.

    Returns:
        Resized array with the same channel layout as the input.

    Raises:
        ValueError: on an empty image or a non-integer/non-positive size.
    """
    try:
        oh, ow = (operator.index(side) for side in out_hw)
    except TypeError:
        raise ValueError(
            f"out_hw must be a (height, width) pair of integers, got {out_hw!r}"
        ) from None
    if oh < 1 or ow < 1:
        raise ValueError(f"output size must be positive, got {out_hw!r}")
    squeeze = image.ndim == 2
    img = ensure_channels(np.asarray(image, dtype=np.float64))
    h, w, c = img.shape
    if h < 1 or w < 1:
        raise ValueError(f"cannot resize an empty image of shape {image.shape}")
    if (h, w) == (oh, ow):
        out = img.copy()
        return out[:, :, 0] if squeeze else out

    rows, cols, row_weights, col_weights = _resize_plan((h, w), (oh, ow))
    # corners[:oh, :ow] = q00, [:oh, ow:] = q01, [oh:, :ow] = q10, [oh:, ow:] = q11.
    corners = img.take(rows, axis=0).take(cols, axis=1)
    corners *= col_weights
    # Rows [:oh] are top = q00*(1-fx) + q01*fx; rows [oh:] are bottom.
    blended = np.add(corners[:, :ow], corners[:, ow:])
    blended *= row_weights
    out = np.add(blended[:oh], blended[oh:])
    return out[:, :, 0] if squeeze else out


def downscale_antialiased(image: np.ndarray, factor: float) -> np.ndarray:
    """Downscale by ``factor`` (< 1) without aliasing.

    Plain bilinear sampling at large downscale factors samples only four
    source pixels per output pixel, so fine texture aliases into noise.
    This helper halves the image with 2x2 block means (a true area filter)
    until the remaining factor is > 1/2, then applies a single bilinear
    resize for the residual — matching what optics + a pooling sensor do.

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` float array.
        factor: target scale in (0, 1].

    Returns:
        The downscaled image (same channel layout).
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("factor must be in (0, 1]")
    img = np.asarray(image, dtype=np.float64)
    remaining = factor
    while remaining <= 0.5 and min(img.shape[0], img.shape[1]) >= 4:
        h2, w2 = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
        cropped = img[:h2, :w2]
        if cropped.ndim == 2:
            img = cropped.reshape(h2 // 2, 2, w2 // 2, 2).mean(axis=(1, 3))
        else:
            img = cropped.reshape(h2 // 2, 2, w2 // 2, 2, cropped.shape[2]).mean(
                axis=(1, 3)
            )
        remaining *= 2.0
    out_h = max(int(round(image.shape[0] * factor)), 1)
    out_w = max(int(round(image.shape[1] * factor)), 1)
    return resize_bilinear(img, (out_h, out_w))


def crop_padded(image: np.ndarray, x: int, y: int, w: int, h: int) -> np.ndarray:
    """Crop a region, zero-padding the parts that fall outside the image.

    Unlike the sensor's :meth:`~repro.sensor.pixel_array.PixelArray.region`
    (which refuses out-of-bounds reads, as hardware would), a digital crop
    can pad freely; useful when expanding ROIs near frame edges.
    """
    if w <= 0 or h <= 0:
        raise ValueError("crop size must be positive")
    img = ensure_channels(np.asarray(image))
    out = np.zeros((h, w, img.shape[2]), dtype=img.dtype)
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, img.shape[1]), min(y + h, img.shape[0])
    if x1 > x0 and y1 > y0:
        out[y0 - y : y1 - y, x0 - x : x1 - x] = img[y0:y1, x0:x1]
    return out[:, :, 0] if image.ndim == 2 else out
