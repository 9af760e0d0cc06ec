"""Windowed streaming pools exactly the frames that run stage 1.

Temporal ROI reuse earns its keep by skipping the pooled stage-1
conversion on stable frames.  A windowed runner exposes a whole window
ahead of the processor, but it must still pool (and ADC-convert) only the
frames whose policy verdict denies reuse: the count of pooled frames
equals the outcome's ``stage1_frames``, whatever the window.  Without a
policy every frame runs stage 1, in one vectorized pass per window.
"""

import numpy as np
import pytest

from repro.core import HiRISEConfig, HiRISEPipeline
from repro.sensor import AnalogPoolingModel, NoiseModel
from repro.stream import (
    StreamRunner,
    TemporalROIReuse,
    ground_truth_detector,
    pedestrian_clip,
)

N_FRAMES = 14
NOISE = NoiseModel(read_noise=0.002, prnu=0.01, dsnu=0.001, seed=7)


@pytest.fixture(scope="module")
def clip():
    return pedestrian_clip(n_frames=N_FRAMES, resolution=(96, 64), seed=2)


@pytest.fixture
def pooled(monkeypatch):
    """Counts the frames every pooling call converts, scalar or batched."""
    counts = {"frames": 0, "batch_calls": 0}
    pool, pool_batch = AnalogPoolingModel.pool, AnalogPoolingModel.pool_batch

    def counted_pool(self, voltages, *args, **kwargs):
        counts["frames"] += 1
        return pool(self, voltages, *args, **kwargs)

    def counted_pool_batch(self, voltages, *args, **kwargs):
        counts["frames"] += len(voltages)
        counts["batch_calls"] += 1
        return pool_batch(self, voltages, *args, **kwargs)

    monkeypatch.setattr(AnalogPoolingModel, "pool", counted_pool)
    monkeypatch.setattr(AnalogPoolingModel, "pool_batch", counted_pool_batch)
    return counts


def run(clip, *, window: int, reuse: bool):
    detect, on_frame = ground_truth_detector(clip)
    pipeline = HiRISEPipeline(
        detector=detect,
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        noise=NOISE,
    )
    runner = StreamRunner(
        pipeline,
        reuse=TemporalROIReuse(max_reuse=3) if reuse else None,
        window=window,
        keep_outcomes=True,
    )
    return runner.run(clip.frames, on_frame=on_frame)


def assert_same_stream(got, oracle) -> None:
    assert got.frames == oracle.frames
    for a, b in zip(got.outcomes, oracle.outcomes):
        assert np.array_equal(a.stage1_image, b.stage1_image)
        assert len(a.roi_crops) == len(b.roi_crops)
        assert all(np.array_equal(x, y) for x, y in zip(a.roi_crops, b.roi_crops))


@pytest.mark.parametrize("window", [1, 4, 12, N_FRAMES])
def test_reuse_pools_only_stage1_frames(clip, pooled, window):
    oracle = run(clip, window=1, reuse=True)
    pooled["frames"] = pooled["batch_calls"] = 0

    outcome = run(clip, window=window, reuse=True)

    assert outcome.reused_frames > 0, "no frame was served from reuse"
    assert pooled["frames"] == outcome.stage1_frames < N_FRAMES
    assert pooled["batch_calls"] == 0
    assert_same_stream(outcome, oracle)


@pytest.mark.parametrize("window", [4, 12, N_FRAMES])
def test_no_policy_pools_every_frame_per_window(clip, pooled, window):
    oracle = run(clip, window=1, reuse=False)
    pooled["frames"] = pooled["batch_calls"] = 0

    outcome = run(clip, window=window, reuse=False)

    assert pooled["frames"] == outcome.n_frames == N_FRAMES
    assert pooled["batch_calls"] == -(-N_FRAMES // window)
    assert_same_stream(outcome, oracle)
