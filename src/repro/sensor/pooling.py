"""Analog k x k average pooling — the heart of the HiRISE compression unit.

The behavioral model here is calibrated against the transistor-level circuit
in :mod:`repro.analog.pooling_circuit`: the shared node of the averaging
circuit sits at ``gain * mean(inputs) + offset`` (ideally ``0.5`` and
``-VDD/2``), and the readout chain inverts that nominal affine map before
the ADC.  What cannot be inverted is captured as non-ideality:

* a per-pool-site **gain error** (resistor mismatch across the legs),
* a per-pool-site **offset error** (pull-down resistor mismatch),
* the source-follower's residual **compression nonlinearity**, second-order
  and typically < 1% of full scale for the default circuit sizing (see the
  Fig. 5 tracking fits).

Digital pooling (:func:`digital_avg_pool`) is the in-processor reference the
paper compares against in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_pool_args(height: int, width: int, k: int) -> None:
    if k < 1:
        raise ValueError("pooling size k must be >= 1")
    if height < k or width < k:
        raise ValueError(f"array {width}x{height} smaller than pooling size {k}")


def _sums_row_major(values: np.ndarray) -> bool:
    """Whether NumPy's block mean over ``values`` sums in row-major order.

    True for a float64 ``(N, H, W, C)`` stack, ``C >= 2``, whose
    non-singleton axes have strictly decreasing absolute strides: NumPy's
    reduction then loops over channels innermost and visits the block
    offsets ``(a, b)`` row by row.
    """
    if values.ndim != 4 or values.shape[3] < 2 or values.dtype != np.float64:
        return False
    strides = [abs(s) for s, n in zip(values.strides, values.shape) if n > 1]
    return all(outer > inner for outer, inner in zip(strides, strides[1:]))


def block_reduce_mean(values: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k block mean over the two leading axes.

    Rows/columns that do not fill a complete block are cropped, matching a
    sensor whose pooling groups are tiled from the top-left corner.

    Args:
        values: ``(H, W)`` or ``(H, W, C)`` array.
        k: block size.

    Returns:
        ``(H // k, W // k[, C])`` array of block means.
    """
    return block_reduce_mean_batch(values[None], k)[0]


def block_reduce_mean_batch(values: np.ndarray, k: int) -> np.ndarray:
    """Batched :func:`block_reduce_mean` over a leading frame axis.

    Every frame is reduced in one pass, and each output element is summed
    in the same order as on the single-frame path, so the result is
    bit-identical to calling :func:`block_reduce_mean` per frame.

    Summation order: a float64 ``(N, H, W, C)`` stack with ``C >= 2`` in
    row-major memory order (the sensor's exposure stacks) is reduced by
    copying block offset ``(0, 0)`` and adding the other k² strided views
    ``values[:, a::k, b::k]`` in place, in row-major ``(a, b)`` order, then
    dividing once by ``k * k``.  That is the order NumPy's
    ``.reshape(...).mean(axis=(2, 4))`` uses for this layout, so the two
    agree bit for bit (``tests/property/test_pooling_kernel.py`` pins
    it), at about a third of the cost.  Every other input, including each
    ``(N, H, W)`` stack, keeps ``.mean``: there NumPy iterates the block
    in another order and the strided adds would not be exact.

    Args:
        values: ``(N, H, W)`` or ``(N, H, W, C)`` array.
        k: block size.

    Returns:
        ``(N, H // k, W // k[, C])`` array of block means.
    """
    _check_pool_args(values.shape[1], values.shape[2], k)
    n = values.shape[0]
    h = (values.shape[1] // k) * k
    w = (values.shape[2] // k) * k
    cropped = values[:, :h, :w]
    if _sums_row_major(cropped):
        total = cropped[:, ::k, ::k].copy()
        for a in range(k):
            for b in range(k):
                if a or b:
                    total += cropped[:, a::k, b::k]
        total /= k * k
        return total
    blocks = cropped.reshape(n, h // k, k, w // k, k, *cropped.shape[3:])
    return blocks.mean(axis=(2, 4))


@dataclass(frozen=True)
class AnalogPoolingModel:
    """Behavioral model of the analog averaging circuit.

    Attributes:
        gain: nominal shared-node gain (circuit ideal: 0.5).
        offset_per_vdd: nominal offset as a fraction of VDD (ideal: -0.5).
        gain_error_sigma: per-site multiplicative mismatch (unitless sigma).
        offset_error_sigma_per_vdd: per-site additive mismatch, fraction of
            VDD.
        compression: strength of the residual source-follower nonlinearity;
            the model applies ``v - compression * v * (1 - v)`` on the
            normalized mean, a second-order bow matched to the Fig. 5 fits.
        seed: seed for the per-site mismatch maps.
    """

    gain: float = 0.5
    offset_per_vdd: float = -0.5
    gain_error_sigma: float = 0.002
    offset_error_sigma_per_vdd: float = 0.001
    compression: float = 0.01
    seed: int = 77

    @classmethod
    def ideal(cls) -> "AnalogPoolingModel":
        """Mismatch-free, perfectly linear averaging (for unit tests)."""
        return cls(
            gain_error_sigma=0.0, offset_error_sigma_per_vdd=0.0, compression=0.0
        )

    @classmethod
    def from_tracking_fit(
        cls, gain: float, offset: float, vdd: float, **kwargs
    ) -> "AnalogPoolingModel":
        """Build from a measured circuit fit (see ``repro.analog.fit_tracking``)."""
        return cls(gain=gain, offset_per_vdd=offset / vdd, **kwargs)

    # -- core op ------------------------------------------------------------------

    def pool(
        self,
        voltages: np.ndarray,
        k: int,
        vdd: float,
        grayscale: bool = False,
    ) -> np.ndarray:
        """Analog-average ``voltages`` over k x k blocks (and channels).

        The returned voltages are *calibrated*: the nominal gain/offset of
        the shared node has been inverted by the readout chain, so an ideal
        circuit returns exactly the block mean.  Mismatch and compression
        remain, because a real readout cannot know each site's deviation.

        Args:
            voltages: ``(H, W, 3)`` analog pixel voltages.
            k: pooling size (k=1 with grayscale=True merges channels only).
            vdd: full-scale voltage.
            grayscale: merge the three channels into the pool as well
                (k*k*3 pixels per output, the paper's Fig. 4 example).

        Returns:
            ``(H//k, W//k)`` if grayscale else ``(H//k, W//k, 3)``.
        """
        if voltages.ndim != 3 or voltages.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3), got {voltages.shape}")
        _check_pool_args(voltages.shape[0], voltages.shape[1], k)

        if grayscale:
            merged = block_reduce_mean(voltages.mean(axis=2), k)
        else:
            merged = block_reduce_mean(voltages, k)
        return self._calibrated_shared_node(merged, vdd, site_shape=merged.shape)

    def pool_batch(
        self,
        voltages: np.ndarray,
        k: int,
        vdd: float,
        grayscale: bool = False,
    ) -> np.ndarray:
        """Analog-average a stack of frames in one vectorized pass.

        Bit-identical to calling :meth:`pool` on each frame: the block means
        reduce in the same order, and the per-site mismatch maps are drawn at
        the *per-frame* site shape (the circuit is the same silicon for every
        exposure) and broadcast across the frame axis.

        Args:
            voltages: ``(N, H, W, 3)`` analog voltages for N exposures.
            k: pooling size.
            vdd: full-scale voltage.
            grayscale: merge the three channels into the pool as well.

        Returns:
            ``(N, H//k, W//k)`` if grayscale else ``(N, H//k, W//k, 3)``.
        """
        if voltages.ndim != 4 or voltages.shape[3] != 3:
            raise ValueError(f"expected (N, H, W, 3), got {voltages.shape}")
        _check_pool_args(voltages.shape[1], voltages.shape[2], k)

        if grayscale:
            merged = block_reduce_mean_batch(voltages.mean(axis=3), k)
        else:
            merged = block_reduce_mean_batch(voltages, k)
        return self._calibrated_shared_node(merged, vdd, site_shape=merged.shape[1:])

    def _calibrated_shared_node(
        self, merged: np.ndarray, vdd: float, site_shape: tuple[int, ...]
    ) -> np.ndarray:
        """Shared-node voltage -> calibrated output, for one or many frames.

        ``site_shape`` is the physical pool-site grid: the mismatch maps are
        drawn at that shape so a batch reuses the same fixed pattern as every
        individual frame.
        """
        # Residual nonlinearity applied to the normalized mean before the
        # affine map.
        normalized = np.clip(merged / vdd, 0.0, 1.0)
        if self.compression:
            normalized = normalized - self.compression * normalized * (1.0 - normalized)
        shared = self.gain * normalized * vdd + self.offset_per_vdd * vdd

        # Per-site mismatch (fixed pattern: depends only on seed and shape).
        if self.gain_error_sigma or self.offset_error_sigma_per_vdd:
            rng = np.random.default_rng(self.seed)
            gain_map = 1.0 + self.gain_error_sigma * rng.standard_normal(site_shape)
            offset_map = (
                self.offset_error_sigma_per_vdd
                * vdd
                * rng.standard_normal(site_shape)
            )
            shared = shared * gain_map + offset_map

        # Readout calibration: invert the *nominal* affine map.
        calibrated = (shared - self.offset_per_vdd * vdd) / self.gain
        return np.clip(calibrated, 0.0, vdd)


def digital_avg_pool(image: np.ndarray, k: int) -> np.ndarray:
    """In-processor k x k average pooling of an already-digitized image.

    This is the baseline scaling path in Table 2 ("In-Proc"): the full frame
    is converted and transferred first, then scaled digitally.

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` digital image.
        k: pooling size.

    Returns:
        Block-mean image, same dtype promoted to float64.
    """
    return block_reduce_mean(np.asarray(image, dtype=np.float64), k)
