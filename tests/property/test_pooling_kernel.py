"""The block-mean kernel is pinned, bit for bit, to NumPy's own reduction.

:func:`~repro.sensor.block_reduce_mean_batch` sums the k x k strided block
views of an ``(N, H, W, C)`` stack in place instead of calling
``.reshape(...).mean(axis=(2, 4))``.  That is only a speed change if the
two agree *exactly*: every pooled value feeds the ADC, so a last-bit
drift would move digitized frames and every persisted cache digest with
them.  This property states the agreement over shapes, block sizes,
memory layouts and value scales.  If a NumPy upgrade changes its
reduction order, this test is where it shows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sensor import block_reduce_mean, block_reduce_mean_batch
from repro.sensor.pooling import _sums_row_major


def reference_mean(values: np.ndarray, k: int) -> np.ndarray:
    """The reshape-and-mean reduction the kernel must reproduce."""
    n = values.shape[0]
    h = (values.shape[1] // k) * k
    w = (values.shape[2] // k) * k
    blocks = values[:, :h, :w].reshape(n, h // k, k, w // k, k, *values.shape[3:])
    return blocks.mean(axis=(2, 4))


@st.composite
def stacks(draw):
    """A random ``(N, H, W[, C])`` float64 stack, its k, and a layout."""
    k = draw(st.integers(1, 16))
    n = draw(st.integers(1, 4))
    # Sides from k up to a few blocks past it, rarely block multiples.
    h = draw(st.integers(k, 4 * k + 5))
    w = draw(st.integers(k, 4 * k + 5))
    channels = draw(st.sampled_from([None, 1, 2, 3]))
    scale = draw(st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]))
    seed = draw(st.integers(0, 2**32 - 1))
    layout = draw(
        st.sampled_from(["contiguous", "reversed", "sliced", "fortran", "transposed"])
    )

    shape = (n, h, w) if channels is None else (n, h, w, channels)
    rng = np.random.default_rng(seed)
    if layout == "sliced":
        # Every other element along each spatial axis of a larger block.
        big = rng.random((n, 2 * h, 2 * w, *shape[3:])) * scale
        values = big[:, ::2, ::2]
    else:
        values = rng.random(shape) * scale
        if layout == "reversed":
            values = values[:, ::-1, ::-1]
        elif layout == "fortran":
            values = np.asfortranarray(values)
        elif layout == "transposed":
            values = np.ascontiguousarray(values.swapaxes(1, 2)).swapaxes(1, 2)
    return values, k


class TestBlockMeanKernel:
    @given(case=stacks())
    @settings(max_examples=200, deadline=None)
    def test_batch_kernel_equals_numpy_mean(self, case):
        values, k = case
        got = block_reduce_mean_batch(values, k)
        want = reference_mean(values, k)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(case=stacks())
    @settings(max_examples=50, deadline=None)
    def test_single_frame_wrapper_equals_numpy_mean(self, case):
        values, k = case
        frame = values[0]
        got = block_reduce_mean(frame, k)
        assert np.array_equal(got, reference_mean(frame[None], k)[0])

    def test_exposure_stacks_take_the_strided_path(self):
        """The property is not vacuous: the layouts the sensor pools --
        a contiguous stack, a frame of it, a cropped window -- all run the
        in-place strided sum, while single-channel and column-major inputs
        keep ``.mean``."""
        stack = np.zeros((4, 48, 64, 3))
        assert _sums_row_major(stack)
        assert _sums_row_major(stack[1][None])
        assert _sums_row_major(stack[:2, :45, :61])
        assert not _sums_row_major(stack[..., :1])
        assert not _sums_row_major(np.asfortranarray(stack))
        assert not _sums_row_major(stack.astype(np.float32))

    def test_input_is_not_mutated(self):
        values = np.random.default_rng(0).random((2, 8, 8, 3))
        before = values.copy()
        block_reduce_mean_batch(values, 1)
        block_reduce_mean_batch(values, 4)
        assert np.array_equal(values, before)
