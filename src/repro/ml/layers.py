"""Neural-network layers with forward/backward passes, in pure NumPy.

This is the training/inference substrate standing in for the paper's
PyTorch/TFLite toolchain.  Layout is NHWC throughout (batch, height, width,
channels) — the same layout TFLite-Micro uses on the MCUs the paper targets.

Every layer implements:

* ``forward(x, training=False)`` — returns the output and caches whatever
  the backward pass needs;
* ``backward(grad_out)`` — returns the gradient w.r.t. the input and
  accumulates parameter gradients into each :class:`Param`;
* ``params()`` — the trainable :class:`Param` objects.

Convolutions use im2col via ``numpy.lib.stride_tricks.sliding_window_view``
so they are vectorized end to end.

Inference additionally honors a per-layer **compute dtype** (float64 by
default, float32 opt-in via :meth:`Layer.set_compute_dtype`): parameters and
running statistics are cast once, and every forward preserves the dtype —
float32 never silently upcasts.  :meth:`Layer.predict_batch` is the batched
inference entry point: it casts the input stack to the compute dtype and
runs one ``training=False`` forward, whose per-sample rows are bit-identical
to batch-size-1 forwards (the :class:`Dense` inference matmul deliberately
uses a fixed-order accumulation so the result cannot depend on how many
rows share the pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Dtypes :meth:`Layer.set_compute_dtype` accepts.
COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_compute_dtype(dtype) -> np.dtype:
    """Normalize/validate a compute dtype (raises naming the valid set)."""
    dtype = np.dtype(dtype)
    if dtype not in COMPUTE_DTYPES:
        names = sorted(d.name for d in COMPUTE_DTYPES)
        raise ValueError(
            f"compute_dtype: expected one of {names}, got {dtype.name!r}"
        )
    return dtype


@dataclass
class Param:
    """A trainable tensor and its accumulated gradient."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)
    name: str = "param"

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base layer: stateless by default."""

    #: Inference dtype; class default float64, overridden per instance by
    #: :meth:`set_compute_dtype`.
    compute_dtype: np.dtype = np.dtype(np.float64)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def set_compute_dtype(self, dtype) -> "Layer":
        """Cast parameters (and running state) to an inference dtype.

        Intended for frozen/inference use: gradients are re-zeroed in the
        new dtype, so switching mid-training discards optimizer-relevant
        state.  ``float64`` is the default; ``float32`` halves memory
        traffic on the serving hot path at a documented precision cost.

        Args:
            dtype: ``"float32"``/``"float64"`` (or the numpy equivalents).

        Returns:
            ``self``, for chaining.
        """
        self.compute_dtype = dtype = as_compute_dtype(dtype)
        for param in self.params():
            param.value = np.ascontiguousarray(param.value, dtype=dtype)
            param.grad = np.zeros_like(param.value)
        self._cast_state(dtype)
        return self

    def _cast_state(self, dtype: np.dtype) -> None:
        """Hook for non-parameter state (e.g. batch-norm running stats)."""

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Inference on a stack: cast to the compute dtype, one forward.

        The per-sample rows of the result are bit-identical to running
        each sample through its own batch-size-1 ``predict_batch`` call.
        """
        return self.forward(np.asarray(x, dtype=self.compute_dtype), training=False)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training)


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / max(fan_in, 1))


def _pad_nhwc(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


class Conv2D(Layer):
    """Standard 2-D convolution, NHWC, square kernel, symmetric padding.

    Args:
        in_channels: input channel count.
        out_channels: filter count.
        kernel: kernel side length.
        stride: spatial stride.
        pad: symmetric zero padding ("same" for stride 1 when
            ``pad = kernel // 2``).
        rng: initializer generator (He normal).
        bias: include a bias term.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int | None = None,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ):
        rng = rng or np.random.default_rng(0)
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        fan_in = kernel * kernel * in_channels
        self.w = Param(
            _he_init(rng, (kernel, kernel, in_channels, out_channels), fan_in),
            name="conv_w",
        )
        self.b = Param(np.zeros(out_channels), name="conv_b") if bias else None
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xp = _pad_nhwc(x, self.pad)
        k, s = self.kernel, self.stride
        windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        # windows: (N, OH, OW, C, k, k) -> reorder to (N, OH, OW, k, k, C)
        windows = windows.transpose(0, 1, 2, 4, 5, 3)
        n, oh, ow = windows.shape[:3]
        cols = windows.reshape(n, oh, ow, -1)
        w_mat = self.w.value.reshape(-1, self.w.value.shape[-1])
        # The kernel taps are pre-folded into one contraction axis, so
        # each output element is a fixed-length row-dot whatever the
        # batch size (bit-identity is bench-asserted per PR 4).
        # repro: lint-ok[no-bare-matmul-in-inference] fixed row-dot, batch-invariant
        out = cols @ w_mat
        if self.b is not None:
            out += self.b.value
        if training:
            self._cache = (x.shape, cols)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_shape, cols = self._cache
        n, oh, ow, _ = grad_out.shape
        k, s = self.kernel, self.stride
        w_mat = self.w.value.reshape(-1, self.w.value.shape[-1])

        grad_flat = grad_out.reshape(-1, grad_out.shape[-1])
        cols_flat = cols.reshape(-1, cols.shape[-1])
        self.w.grad += (cols_flat.T @ grad_flat).reshape(self.w.value.shape)
        if self.b is not None:
            self.b.grad += grad_flat.sum(axis=0)

        grad_cols = (grad_flat @ w_mat.T).reshape(n, oh, ow, k, k, -1)
        # Scatter-add the column gradients back to the padded input.
        hp, wp = x_shape[1] + 2 * self.pad, x_shape[2] + 2 * self.pad
        grad_xp = np.zeros((n, hp, wp, x_shape[3]))
        for ki in range(k):
            for kj in range(k):
                grad_xp[:, ki : ki + oh * s : s, kj : kj + ow * s : s, :] += grad_cols[
                    :, :, :, ki, kj, :
                ]
        if self.pad:
            grad_xp = grad_xp[:, self.pad : -self.pad, self.pad : -self.pad, :]
        self._cache = None
        return grad_xp

    def params(self) -> list[Param]:
        return [self.w] + ([self.b] if self.b is not None else [])


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution (one filter per input channel), NHWC."""

    def __init__(
        self,
        channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        self.w = Param(
            _he_init(rng, (kernel, kernel, channels), kernel * kernel), name="dwconv_w"
        )
        self.b = Param(np.zeros(channels), name="dwconv_b")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xp = _pad_nhwc(x, self.pad)
        k, s = self.kernel, self.stride
        windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        # (N, OH, OW, C, k, k); weights (k, k, C) -> einsum over k,k per C.
        out = np.einsum("nhwckl,klc->nhwc", windows, self.w.value)
        out += self.b.value
        if training:
            self._cache = (x.shape, windows)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_shape, windows = self._cache
        k, s = self.kernel, self.stride
        n, oh, ow, c = grad_out.shape
        self.w.grad += np.einsum("nhwckl,nhwc->klc", windows, grad_out)
        self.b.grad += grad_out.sum(axis=(0, 1, 2))

        hp, wp = x_shape[1] + 2 * self.pad, x_shape[2] + 2 * self.pad
        grad_xp = np.zeros((n, hp, wp, c))
        for ki in range(k):
            for kj in range(k):
                grad_xp[:, ki : ki + oh * s : s, kj : kj + ow * s : s, :] += (
                    grad_out * self.w.value[ki, kj, :]
                )
        if self.pad:
            grad_xp = grad_xp[:, self.pad : -self.pad, self.pad : -self.pad, :]
        self._cache = None
        return grad_xp

    def params(self) -> list[Param]:
        return [self.w, self.b]


class ReLU(Layer):
    """Rectified linear unit; ``cap`` turns it into ReLU6-style clipping."""

    def __init__(self, cap: float | None = None):
        self.cap = cap
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if self.cap is not None:
            out = np.minimum(out, self.cap)
        if training:
            self._mask = (x > 0.0) if self.cap is None else ((x > 0.0) & (x < self.cap))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad = grad_out * self._mask
        self._mask = None
        return grad


def relu6() -> ReLU:
    """The MobileNet activation."""
    return ReLU(cap=6.0)


class MaxPool2D(Layer):
    """Non-overlapping k x k max pooling (input sides must divide by k)."""

    def __init__(self, k: int = 2):
        if k < 1:
            raise ValueError("pool size must be >= 1")
        self.k = k
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, h, w, c = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) must divide pool size {k}")
        if training:
            out = x.reshape(n, h // k, k, w // k, k, c).max(axis=(2, 4))
            self._cache = (x, out)
            return out
        # A running maximum over the k*k strided views, in the row-major
        # order NumPy's reduce visits a row-major block, is byte-equal to
        # ``.max(axis=(2, 4))`` (NaN and signed zeros included; property-
        # tested) at a fraction of the cost of the multi-axis reduce.  On
        # a column-major input the reduce walks blocks column-first, which
        # can only flip the sign of a zero on a +0/-0 tie; tiny_cnn feeds
        # every pool from Conv2D -> BatchNorm -> ReLU, a row-major array.
        out = x[:, ::k, ::k].copy()
        for i in range(k):
            for j in range(k):
                if i or j:
                    np.maximum(out, x[:, i::k, j::k], out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x, out = self._cache
        n, h, w, c = x.shape
        k = self.k
        upsampled = np.repeat(np.repeat(out, k, axis=1), k, axis=2)
        mask = x == upsampled
        grad_up = np.repeat(np.repeat(grad_out, k, axis=1), k, axis=2)
        # Split ties evenly so the gradient stays well-defined.
        counts = (
            mask.reshape(n, h // k, k, w // k, k, c)
            .sum(axis=(2, 4), keepdims=True)
            .reshape(n, h // k, 1, w // k, 1, c)
        )
        counts_up = np.repeat(np.repeat(counts.reshape(n, h // k, w // k, c), k, 1), k, 2)
        self._cache = None
        return grad_up * mask / np.maximum(counts_up, 1)


class GlobalAvgPool(Layer):
    """Average over the spatial dimensions: NHWC -> NC."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, h, w, c = self._shape
        self._shape = None
        return np.broadcast_to(grad_out[:, None, None, :], (n, h, w, c)) / (h * w)


class Flatten(Layer):
    """NHWC -> N(HWC)."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        shape = self._shape
        self._shape = None
        return grad_out.reshape(shape)


class Dense(Layer):
    """Fully connected layer: NC_in -> NC_out."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.w = Param(_he_init(rng, (in_features, out_features), in_features), name="dense_w")
        self.b = Param(np.zeros(out_features), name="dense_b")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x = x
            return x @ self.w.value + self.b.value
        # Inference avoids BLAS on purpose: gemm/gemv pick different
        # accumulation kernels depending on the row count, which would make
        # a batched forward differ from batch-size-1 forwards in the last
        # few ulps.  einsum's fixed-order reduction is row-count-invariant,
        # so batched stage-2 inference stays bit-identical to the per-crop
        # loop; heads are small, so the BLAS loss is negligible here.
        return np.einsum("nk,km->nm", x, self.w.value) + self.b.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward(training=True)")
        self.w.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.w.value.T
        self._x = None
        return grad_in

    def params(self) -> list[Param]:
        return [self.w, self.b]


class BatchNorm(Layer):
    """Batch normalization over all axes except the last (channel) axis.

    Works for both NHWC feature maps and NC vectors.  Uses batch statistics
    during training and exponential running statistics at inference.
    """

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = Param(np.ones(channels), name="bn_gamma")
        self.beta = Param(np.zeros(channels), name="bn_beta")
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            # ``gamma * ((x - mean) / sqrt(var + eps)) + beta`` evaluated in
            # place: the same operations in the same order as the training
            # expression below, minus two temporaries, so bit-identical.
            out = x - self.running_mean
            out /= np.sqrt(self.running_var + self.eps)
            out *= self.gamma.value
            out += self.beta.value
            return out
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        x_hat = (x - mean) / np.sqrt(var + self.eps)
        self._cache = (x_hat, var, axes)
        return self.gamma.value * x_hat + self.beta.value

    def _cast_state(self, dtype: np.dtype) -> None:
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_hat, var, axes = self._cache
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        g = grad_out * self.gamma.value
        grad_in = (
            g - g.mean(axis=axes) - x_hat * (g * x_hat).mean(axis=axes)
        ) / np.sqrt(var + self.eps)
        # Note: the (m-1)/m Bessel factor is ignored, standard in practice.
        del m
        self._cache = None
        return grad_in

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]
