"""The stage-2 inference kernels are pinned, byte for byte, to the
expressions they replaced.

Three float64 hot-path kernels were rewritten for speed under the
bit-identity contract (served logits are digested and cached, so a
last-bit drift would be a behavior change, not a rounding detail):

* ``MaxPool2D.forward`` at inference is a running ``np.maximum`` over the
  k*k strided views instead of ``reshape(...).max(axis=(2, 4))``;
* ``BatchNorm.forward`` at inference evaluates
  ``gamma * ((x - mean) / sqrt(var + eps)) + beta`` in place;
* ``resize_bilinear`` gathers source rows, then columns, with ``take``
  instead of four 2-D fancy-index gathers.

Each property below compares ``.tobytes()`` of the kernel against the
replaced expression, over shapes, dtypes, memory layouts and the values
where max/arithmetic identities usually break: NaN, signed zeros and
ties.  Training forward and backward passes were not touched; the last
class pins them to reference copies of their math.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ml import tiny_cnn
from repro.ml.image import resize_bilinear
from repro.ml.layers import BatchNorm, MaxPool2D

DTYPES = st.sampled_from([np.float32, np.float64])
LAYOUTS = st.sampled_from(["contiguous", "reversed", "sliced", "fortran"])


def _layout(values: np.ndarray, layout: str) -> np.ndarray:
    """The same values in another memory layout (strides, order)."""
    if layout == "reversed":
        return np.ascontiguousarray(values[:, ::-1, ::-1])[:, ::-1, ::-1]
    if layout == "sliced":
        big = np.zeros((values.shape[0], 2 * values.shape[1], 2 * values.shape[2],
                        *values.shape[3:]), dtype=values.dtype)
        big[:, ::2, ::2] = values
        return big[:, ::2, ::2]
    if layout == "fortran":
        return np.asfortranarray(values)
    return values


@st.composite
def pool_inputs(draw, layouts=LAYOUTS):
    """An NHWC stack mixing NaN, signed zeros, ties and random values."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    h, w = k * draw(st.integers(1, 4)), k * draw(st.integers(1, 4))
    c = draw(st.integers(1, 5))
    dtype = draw(DTYPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, -np.inf, np.inf])
    values = rng.standard_normal((n, h, w, c))
    special = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    values[special] = rng.choice(palette, size=int(special.sum()))
    return _layout(values.astype(dtype), draw(layouts)), k


def reference_max(x: np.ndarray, k: int) -> np.ndarray:
    n, h, w, c = x.shape
    return x.reshape(n, h // k, k, w // k, k, c).max(axis=(2, 4))


class TestMaxPoolKernel:
    @given(case=pool_inputs(st.sampled_from(["contiguous", "reversed", "sliced"])))
    @settings(max_examples=300, deadline=None)
    def test_inference_equals_reshape_max(self, case):
        x, k = case
        want = reference_max(x, k)
        got = MaxPool2D(k).forward(x, training=False)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(case=pool_inputs(st.just("fortran")))
    @settings(max_examples=100, deadline=None)
    def test_column_major_input_equal_up_to_the_sign_of_tied_zeros(self, case):
        """On a column-major stack NumPy's reduce walks each block
        column-first, so on a +0/-0 tie the reference itself returns a
        zero of another sign than on the same values in row-major order.
        The kernel keeps the row-major result: equal values, NaN in the
        same places.  (Every layer before a MaxPool2D in the tiny CNN
        hands it a row-major array; see the test below.)"""
        x, k = case
        got = MaxPool2D(k).forward(x)
        assert np.array_equal(got, reference_max(x, k), equal_nan=True)
        row_major = np.ascontiguousarray(x)
        assert got.tobytes() == reference_max(row_major, k).tobytes()

    def test_tiny_cnn_feeds_maxpool_row_major_stacks(self):
        net = tiny_cnn(32, 4, width=8, seed=0)
        x = np.random.default_rng(5).random((3, 32, 32, 3))
        seen = 0
        for layer in net.layers:
            if isinstance(layer, MaxPool2D):
                assert x.flags.c_contiguous
                seen += 1
            x = layer.forward(x)
        assert seen >= 2

    def test_signed_zero_ties_keep_the_reduction_order(self):
        """Not vacuous: a +0/-0 tie resolves like NumPy's reduce does."""
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 2, 2, 1)
        want = x.reshape(1, 1, 2, 1, 2, 1).max(axis=(2, 4))
        got = MaxPool2D(2).forward(x)
        assert got.tobytes() == want.tobytes()

    def test_input_is_not_mutated(self):
        x = np.random.default_rng(1).standard_normal((2, 4, 4, 3))
        before = x.copy()
        MaxPool2D(2).forward(x)
        assert x.tobytes() == before.tobytes()


@st.composite
def batchnorm_inputs(draw):
    """An NHWC or NC input plus a batch norm with random running stats."""
    dtype = draw(DTYPES)
    c = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(
        st.sampled_from([(3, c), (2, 5, 4, c), (1, 1, 1, c), (4, 3, 6, c)])
    )
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = (rng.standard_normal(shape) * scale).astype(dtype)
    x[rng.random(shape) < 0.1] = -0.0
    bn = BatchNorm(c, eps=draw(st.sampled_from([1e-5, 1e-3])))
    bn.running_mean = rng.normal(0.0, scale, c)
    bn.running_var = rng.uniform(1e-4, 4.0, c)
    bn.gamma.value = rng.normal(1.0, 0.5, c)
    bn.beta.value = rng.normal(0.0, 0.5, c)
    bn.set_compute_dtype(dtype)
    return bn, x


class TestBatchNormKernel:
    @given(case=batchnorm_inputs())
    @settings(max_examples=200, deadline=None)
    def test_inference_equals_reference_expression(self, case):
        bn, x = case
        x_hat = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        want = bn.gamma.value * x_hat + bn.beta.value
        got = bn.forward(x, training=False)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_input_is_not_mutated(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 3, 4))
        before = x.copy()
        BatchNorm(4).forward(x)
        assert x.tobytes() == before.tobytes()


def reference_resize(image: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """The four-gather bilinear resize the ``take`` kernel replaced."""
    oh, ow = out_hw
    squeeze = image.ndim == 2
    img = np.asarray(image, dtype=np.float64)
    img = img[:, :, None] if squeeze else img
    h, w, _ = img.shape
    if (h, w) == (oh, ow):
        out = img.copy()
        return out[:, :, 0] if squeeze else out
    ys = np.clip((np.arange(oh) + 0.5) * h / oh - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(ow) + 0.5) * w / ow - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y0, y1 = y0[:, None], y1[:, None]
    x0, x1 = x0[None, :], x1[None, :]
    fy = (ys - y0[:, 0])[:, None, None]
    fx = (xs - x0[0])[None, :, None]
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    out = top * (1 - fy) + bottom * fy
    return out[:, :, 0] if squeeze else out


@st.composite
def resize_cases(draw):
    """Up/down-scales including 1x1 and 1xN, 2-D and 3-D, any layout."""
    side = st.one_of(st.just(1), st.integers(1, 6), st.integers(1, 70))
    h, w, oh, ow = draw(side), draw(side), draw(side), draw(side)
    channels = draw(st.sampled_from([None, 1, 3]))
    dtype = draw(DTYPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (h, w) if channels is None else (h, w, channels)
    image = (rng.standard_normal(shape) * 10).astype(dtype)
    image = _layout(image[None], draw(LAYOUTS))[0]
    return image, (oh, ow)


class TestResizeKernel:
    @given(case=resize_cases())
    @settings(max_examples=300, deadline=None)
    def test_take_gathers_equal_fancy_index_gathers(self, case):
        image, out_hw = case
        got = resize_bilinear(image, out_hw)
        want = reference_resize(image, out_hw)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cases_cover_up_down_and_degenerate_shapes(self):
        image = np.random.default_rng(3).random((7, 9, 3))
        for out_hw in [(1, 1), (1, 12), (14, 1), (3, 4), (21, 30), (7, 9)]:
            got = resize_bilinear(image, out_hw)
            assert got.tobytes() == reference_resize(image, out_hw).tobytes()

    def test_input_is_not_mutated(self):
        image = np.random.default_rng(4).random((5, 6, 3))
        before = image.copy()
        resize_bilinear(image, (9, 2))
        assert image.tobytes() == before.tobytes()


def reference_maxpool_train(x: np.ndarray, k: int, grad_out: np.ndarray):
    """Training forward and tie-splitting backward of a k x k max pool."""
    n, h, w, c = x.shape
    out = x.reshape(n, h // k, k, w // k, k, c).max(axis=(2, 4))
    upsampled = np.repeat(np.repeat(out, k, axis=1), k, axis=2)
    mask = x == upsampled
    grad_up = np.repeat(np.repeat(grad_out, k, axis=1), k, axis=2)
    counts = (
        mask.reshape(n, h // k, k, w // k, k, c)
        .sum(axis=(2, 4), keepdims=True)
        .reshape(n, h // k, 1, w // k, 1, c)
    )
    counts_up = np.repeat(np.repeat(counts.reshape(n, h // k, w // k, c), k, 1), k, 2)
    return out, grad_up * mask / np.maximum(counts_up, 1)


def reference_batchnorm_train(bn: BatchNorm, x: np.ndarray, grad_out: np.ndarray):
    """Training forward (batch stats, running-stat update) and backward."""
    axes = tuple(range(x.ndim - 1))
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
    running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * var
    x_hat = (x - mean) / np.sqrt(var + bn.eps)
    out = bn.gamma.value * x_hat + bn.beta.value
    # Gradients accumulate into zeroed buffers (0.0 + -0.0 is +0.0).
    gamma_grad = np.zeros_like(bn.gamma.grad)
    gamma_grad += (grad_out * x_hat).sum(axis=axes)
    beta_grad = np.zeros_like(bn.beta.grad)
    beta_grad += grad_out.sum(axis=axes)
    g = grad_out * bn.gamma.value
    grad_in = (
        g - g.mean(axis=axes) - x_hat * (g * x_hat).mean(axis=axes)
    ) / np.sqrt(var + bn.eps)
    return out, grad_in, running_mean, running_var, gamma_grad, beta_grad


class TestTrainingPathsUnchanged:
    @given(case=pool_inputs(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_maxpool_training_forward_backward(self, case, seed):
        x, k = case
        x = np.nan_to_num(x)  # NaN has no meaningful gradient routing
        pool = MaxPool2D(k)
        out = pool.forward(x, training=True)
        grad_out = np.random.default_rng(seed).standard_normal(out.shape)
        want_out, want_grad = reference_maxpool_train(x, k, grad_out)
        assert out.tobytes() == want_out.tobytes()
        assert pool.backward(grad_out).tobytes() == want_grad.tobytes()

    @given(case=batchnorm_inputs(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_batchnorm_training_forward_backward(self, case, seed):
        bn, x = case
        grad_out = np.random.default_rng(seed).standard_normal(x.shape).astype(x.dtype)
        want = reference_batchnorm_train(bn, x, grad_out)
        out = bn.forward(x, training=True)
        grad_in = bn.backward(grad_out)
        got = (out, grad_in, bn.running_mean, bn.running_var, bn.gamma.grad, bn.beta.grad)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()
