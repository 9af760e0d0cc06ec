"""Built-in components: the names every spec can use out of the box.

Importing this module (which :mod:`repro.service` does) populates the four
registries with the repo's own detectors, classifiers, stream sources, and
reuse policies.  Each factory validates its params and raises naming the
bad value, so spec errors surface at build time, not mid-stream.

User extensions follow the same pattern::

    from repro.service import register_detector

    @register_detector("my-detector")
    def _build(clip, **params):
        return my_detector_fn, None
"""

from __future__ import annotations

import math

import numpy as np

from ..datasets.profiles import (
    CROWDHUMAN_LIKE,
    DHDCAMPUS_LIKE,
    VISDRONE_LIKE,
    DatasetProfile,
)
from ..datasets.scene import SceneGenerator
from ..ml import CropClassifier, GridDetector, GridDetectorConfig, tiny_cnn, to_gray
from ..stream.reuse import TemporalROIReuse
from ..stream.source import (
    SyntheticClip,
    drone_traffic_clip,
    ground_truth_detector,
    pedestrian_clip,
)
from .registry import (
    register_classifier,
    register_detector,
    register_policy,
    register_source,
)
from .spec import SpecError

# -- stream sources ----------------------------------------------------------------


def _bad_param(name: str, expected: str, value) -> SpecError:
    return SpecError(f"scenario.source.params.{name}: expected {expected}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _resolution(params: dict, default: tuple[int, int]) -> tuple[int, int]:
    value = params.pop("resolution", default)
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_int(v) and v > 0 for v in value)
    ):
        raise _bad_param("resolution", "a (width, height) pair of positive integers", value)
    return (int(value[0]), int(value[1]))


def _clip_params(params: dict, count: str) -> dict:
    """Validate an animated clip's knobs: ``count`` actors, speed, jitter.

    Each bad value raises a :class:`SpecError` naming its field, instead
    of rendering nothing (a negative actor count) or failing deep in the
    renderer (a NaN speed).  Unknown names pass through, so the clip
    function rejects them.
    """
    if count in params and not (_is_int(params[count]) and params[count] >= 0):
        raise _bad_param(count, "a non-negative integer", params[count])
    if "speed" in params and not _is_finite(params["speed"]):
        raise _bad_param("speed", "a finite number", params["speed"])
    if "jitter" in params and not (_is_finite(params["jitter"]) and params["jitter"] >= 0):
        raise _bad_param("jitter", "a finite number >= 0", params["jitter"])
    return params


@register_source("pedestrian")
def _pedestrian(n_frames: int, seed: int, **params) -> SyntheticClip:
    """CrowdHuman-flavored walkers; params: resolution, n_walkers, speed, jitter."""
    return pedestrian_clip(
        n_frames=n_frames, seed=seed,
        resolution=_resolution(params, (256, 192)), **_clip_params(params, "n_walkers"),
    )


@register_source("drone")
def _drone(n_frames: int, seed: int, **params) -> SyntheticClip:
    """VisDrone-flavored top-down traffic; params: resolution, n_vehicles, speed, jitter."""
    return drone_traffic_clip(
        n_frames=n_frames, seed=seed,
        resolution=_resolution(params, (256, 192)), **_clip_params(params, "n_vehicles"),
    )


def _scene_sweep(
    profile: DatasetProfile, n_frames: int, seed: int, params: dict
) -> SyntheticClip:
    """Independent procedural scenes as a stream (a dataset *sweep*).

    Unlike the animated clips, consecutive frames are unrelated scenes —
    the workload of the paper's single-frame experiments, made streamable
    (and the adversarial case for temporal reuse: nothing is ever stable).
    """
    label = params.pop("label", None)
    generator = SceneGenerator(
        profile, resolution=_resolution(params, (640, 480)), seed=seed
    )
    if params:
        raise ValueError(
            f"unknown scene-sweep param(s) {sorted(params)}; "
            "valid: resolution, label"
        )
    frames, ground_truth = [], []
    for i in range(n_frames):
        scene = generator.scene(i)
        frames.append(scene.image)
        boxes = scene.boxes_for(label) if label else scene.boxes
        ground_truth.append([(b.x, b.y, b.w, b.h) for b in boxes])
    return SyntheticClip(frames, ground_truth, generator.resolution)


@register_source("crowdhuman-scenes")
def _crowdhuman_scenes(n_frames: int, seed: int, **params) -> SyntheticClip:
    """CrowdHuman-like scene sweep; params: resolution, label (e.g. "head")."""
    return _scene_sweep(CROWDHUMAN_LIKE, n_frames, seed, params)


@register_source("dhdcampus-scenes")
def _dhdcampus_scenes(n_frames: int, seed: int, **params) -> SyntheticClip:
    """DHD-Campus-like scene sweep; params: resolution, label."""
    return _scene_sweep(DHDCAMPUS_LIKE, n_frames, seed, params)


@register_source("visdrone-scenes")
def _visdrone_scenes(n_frames: int, seed: int, **params) -> SyntheticClip:
    """VisDrone-like scene sweep; params: resolution, label."""
    return _scene_sweep(VISDRONE_LIKE, n_frames, seed, params)


# -- detectors ---------------------------------------------------------------------


@register_detector("ground-truth")
def _ground_truth(clip: SyntheticClip, **params):
    """Oracle stage-1: reads the clip's ground truth (params: score, label).

    Isolates *system* costs (transfer/energy/reuse behavior) from detector
    quality, exactly like the paper's analytical experiments.
    """
    return ground_truth_detector(clip, **params)


@register_detector("grid")
def _grid(clip: SyntheticClip, **params):
    """Untrained mini-YOLO grid detector (params: classes, score_threshold, seed).

    A *functional* stand-in for a learned stage 1: exercises the real
    CNN forward path.  Train-and-freeze flows should build their own
    :class:`~repro.ml.GridDetector` and register it under a new name.
    """
    seed = int(params.pop("seed", 0))
    config = GridDetectorConfig(
        input_hw=(clip.resolution[1], clip.resolution[0]),
        classes=tuple(params.pop("classes", ("object",))),
        **params,
    )
    return GridDetector(config, seed=seed).detect, None


@register_detector("none")
def _no_detector(clip: SyntheticClip, **params):
    """No stage-1 model (analytical runs that pass ROIs explicitly)."""
    if params:
        raise ValueError(f"detector 'none' takes no params, got {sorted(params)}")
    return None, None


# -- classifiers -------------------------------------------------------------------


@register_classifier("none")
def _no_classifier(**params):
    if params:
        raise ValueError(f"classifier 'none' takes no params, got {sorted(params)}")
    return None


class MeanLumaClassifier:
    """Mean crop luminance in [0, 1], with a vectorized batch path.

    The batch path reduces a whole same-shape stack at once; its row-wise
    reductions use the same pairwise summation as the per-crop
    ``np.mean``, so batched results are bit-identical to the loop
    (test-asserted).
    """

    def __call__(self, crop: np.ndarray) -> float:
        return float(np.mean(to_gray(crop)))

    def classify_batch(self, stack: np.ndarray) -> list[float]:
        stack = np.asarray(stack)
        if stack.ndim == 4 and stack.shape[-1] == 3:
            n, h, w, _ = stack.shape
            gray = to_gray(stack.reshape(n * h, w, 3)).reshape(n, h, w)
        elif stack.ndim == 4 and stack.shape[-1] == 1:
            gray = stack[..., 0]
        else:
            gray = stack
        means = gray.reshape(stack.shape[0], -1).mean(axis=1)
        return [float(v) for v in means]


@register_classifier("mean-luma")
def _mean_luma(**params):
    """Trivial deterministic stage-2 head: mean crop luminance in [0, 1].

    Stands in for a task model when the experiment only measures system
    costs; its output lands in ``PipelineOutcome.predictions`` like any
    classifier's would.
    """
    if params:
        raise ValueError(f"classifier 'mean-luma' takes no params, got {sorted(params)}")
    return MeanLumaClassifier()


@register_classifier("tiny-cnn")
def _tiny_cnn(**params):
    """Untrained tiny-CNN stage-2 head over resized crops.

    Params: ``input_size`` (square resize side, default 32), ``classes``
    (label list, default ``["object", "background"]``), ``width`` (base
    channel count, default 8), ``seed`` (weight init, default 0).

    Deterministic given ``seed`` and exercises the real batched CNN
    forward — the hot path ``benchmarks/bench_hotpath.py`` measures.  The
    engine applies the system spec's ``compute_dtype`` after construction.
    Train-and-freeze flows should build their own
    :class:`~repro.ml.CropClassifier` and register it under a new name.
    """
    input_size = int(params.pop("input_size", 32))
    width = int(params.pop("width", 8))
    seed = int(params.pop("seed", 0))
    classes = [str(c) for c in params.pop("classes", ("object", "background"))]
    if params:
        raise ValueError(
            f"unknown tiny-cnn param(s) {sorted(params)}; "
            "valid: input_size, classes, width, seed"
        )
    net = tiny_cnn(input_size, len(classes), width=width, seed=seed)
    return CropClassifier(net, (input_size, input_size), classes)


# -- reuse policies ----------------------------------------------------------------


@register_policy("none")
def _no_policy(**params):
    if params:
        raise ValueError(f"policy 'none' takes no params, got {sorted(params)}")
    return None


@register_policy("temporal-reuse")
def _temporal_reuse(**params) -> TemporalROIReuse:
    """IoU-gated stage-1 skipping; params mirror TemporalROIReuse's knobs."""
    return TemporalROIReuse(**params)
