"""Tests for image utilities (resize, grayscale, padded crop)."""

import numpy as np
import pytest

from repro.ml import crop_padded, ensure_channels, resize_bilinear, to_gray


class TestToGray:
    def test_luma_weights(self):
        img = np.zeros((2, 2, 3))
        img[:, :, 0] = 1.0
        assert np.allclose(to_gray(img), 0.299)

    def test_2d_passthrough(self):
        img = np.full((3, 3), 0.5)
        assert to_gray(img) is img

    def test_single_channel_squeezed(self):
        img = np.full((3, 3, 1), 0.4)
        assert to_gray(img).shape == (3, 3)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            to_gray(np.zeros((2, 2, 4)))


class TestEnsureChannels:
    def test_adds_axis(self):
        assert ensure_channels(np.zeros((4, 5))).shape == (4, 5, 1)

    def test_keeps_3d(self):
        x = np.zeros((4, 5, 3))
        assert ensure_channels(x).shape == (4, 5, 3)


class TestResizeBilinear:
    def test_identity_when_same_size(self):
        img = np.random.default_rng(0).random((5, 7, 3))
        out = resize_bilinear(img, (5, 7))
        assert np.allclose(out, img)

    def test_constant_image_preserved(self):
        img = np.full((8, 8), 0.37)
        out = resize_bilinear(img, (3, 5))
        assert np.allclose(out, 0.37)

    def test_upsample_shape(self):
        out = resize_bilinear(np.zeros((4, 4, 3)), (9, 13))
        assert out.shape == (9, 13, 3)

    def test_2d_stays_2d(self):
        out = resize_bilinear(np.zeros((4, 4)), (8, 8))
        assert out.shape == (8, 8)

    def test_linear_ramp_preserved(self):
        """Bilinear resize of a linear ramp stays (approximately) linear."""
        ramp = np.tile(np.linspace(0, 1, 16), (4, 1))
        out = resize_bilinear(ramp, (4, 31))
        diffs = np.diff(out[0])
        assert np.all(diffs >= -1e-12)
        assert np.allclose(diffs[2:-2], diffs[2], atol=1e-6)

    def test_downsample_averages(self):
        img = np.zeros((2, 2))
        img[0, 0] = 1.0
        out = resize_bilinear(img, (1, 1))
        assert 0.2 <= out[0, 0] <= 0.3  # center sample of the bilinear surface

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4)), (0, 4))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (0, 5, 3), (4, 0, 3)])
    def test_rejects_empty_input_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=r"empty image of shape \(" + str(shape[0])):
            resize_bilinear(np.zeros(shape), (4, 4))

    @pytest.mark.parametrize("out_hw", [(2.7, 3), (3, 2.0), ("4", 4), (None, 2)])
    def test_rejects_non_integer_output_size(self, out_hw):
        with pytest.raises(ValueError, match="out_hw must be a"):
            resize_bilinear(np.zeros((4, 4)), out_hw)

    def test_accepts_numpy_integer_output_size(self):
        out = resize_bilinear(np.zeros((4, 4, 3)), (np.int64(2), np.int32(5)))
        assert out.shape == (2, 5, 3)


class TestCropPadded:
    def test_interior_crop(self):
        img = np.arange(24, dtype=float).reshape(4, 6)
        out = crop_padded(img, 1, 1, 3, 2)
        assert np.array_equal(out, img[1:3, 1:4])

    def test_pads_out_of_bounds(self):
        img = np.ones((4, 4, 3))
        out = crop_padded(img, -2, -2, 4, 4)
        assert out.shape == (4, 4, 3)
        assert out[0, 0, 0] == 0.0  # padded corner
        assert out[3, 3, 0] == 1.0  # real pixel

    def test_fully_outside_is_zeros(self):
        img = np.ones((4, 4))
        out = crop_padded(img, 10, 10, 3, 3)
        assert out.shape == (3, 3)
        assert np.all(out == 0.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            crop_padded(np.ones((4, 4)), 0, 0, 0, 3)


def _reference_resize(image, out_hw):
    """The pre-cache resize implementation, kept as a bit-exact oracle."""
    oh, ow = out_hw
    squeeze = image.ndim == 2
    img = ensure_channels(np.asarray(image, dtype=np.float64))
    h, w, _ = img.shape
    if (h, w) == (oh, ow):
        out = img.copy()
        return out[:, :, 0] if squeeze else out
    ys = (np.arange(oh) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow) + 0.5) * w / ow - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bottom = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    out = top * (1 - fy) + bottom * fy
    return out[:, :, 0] if squeeze else out


class TestResizePlanCache:
    def test_bit_identical_to_uncached_reference(self):
        from repro.ml.image import _resize_plan

        rng = np.random.default_rng(11)
        _resize_plan.cache_clear()
        cases = [((13, 21), (32, 32)), ((64, 48), (7, 9)),
                 ((5, 5), (20, 3)), ((40, 40), (40, 41))]
        for in_hw, out_hw in cases:
            img = rng.random((*in_hw, 3))
            expected = _reference_resize(img, out_hw)
            # Twice: a cold plan and a cached plan must both match.
            assert np.array_equal(resize_bilinear(img, out_hw), expected)
            assert np.array_equal(resize_bilinear(img, out_hw), expected)

    def test_repeated_shapes_hit_the_cache(self):
        from repro.ml.image import _resize_plan

        _resize_plan.cache_clear()
        rng = np.random.default_rng(3)
        for _ in range(5):
            resize_bilinear(rng.random((17, 23, 3)), (8, 8))
        info = _resize_plan.cache_info()
        assert info.misses == 1
        assert info.hits == 4

    def test_cached_plan_is_read_only(self):
        from repro.ml.image import _resize_plan

        plan = _resize_plan((10, 10), (4, 4))
        for table in plan:
            with pytest.raises(ValueError):
                table[...] = 0

    def test_output_is_writable_and_fresh(self):
        img = np.ones((6, 6, 3))
        out = resize_bilinear(img, (3, 3))
        out[...] = -1.0  # mutating one output must not poison the next
        again = resize_bilinear(img, (3, 3))
        assert np.all(again == 1.0)

    def test_same_size_still_copies(self):
        img = np.ones((4, 4, 3))
        out = resize_bilinear(img, (4, 4))
        out[...] = 0.0
        assert np.all(img == 1.0)
