"""Synthetic video sources: the paper's workloads, set in motion.

HiRISE targets always-on vision — pedestrian surveillance (CrowdHuman /
DHDCampus-flavored) and aerial monitoring (VisDrone-flavored).  The seed
repo synthesizes those as single scenes; streaming needs *clips*, so this
module animates the same procedural actors over a textured backdrop with
per-actor constant velocities plus optional jitter.

Every clip comes with per-frame ground-truth boxes and a matching
stand-in stage-1 detector (:func:`ground_truth_detector`) so stream
experiments can isolate the *system* costs (transfer, energy, reuse
behavior) from detector quality, exactly like the single-frame benchmarks
do.  Swap in ``repro.ml.CorrelationDetector`` for a learned stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..datasets.shapes import PersonStyle, paint_vehicle, vehicle_color
from ..datasets.textures import colorize, value_noise
from ..ml import Detection

#: ``(x, y, w, h)`` ground-truth box in array coordinates.
Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class Actor:
    """One moving object in a synthetic clip.

    Attributes:
        kind: "person" or a :data:`repro.datasets.shapes.VEHICLE_STYLES` key.
        x, y: start position (person: center-x / head-top; vehicle: center).
        size: person height or vehicle length, in pixels.
        vx, vy: velocity in px/frame.
    """

    kind: str
    x: float
    y: float
    size: float
    vx: float
    vy: float = 0.0


@dataclass(frozen=True)
class SyntheticClip:
    """A generated clip plus its ground truth.

    Attributes:
        frames: ``(H, W, 3)`` float images in [0, 1] (a rendered clip's
            are C-contiguous views of one ``(T, H, W, 3)`` block).
        ground_truth: per-frame actor boxes, aligned with ``frames``.
        resolution: ``(width, height)``.
    """

    frames: list[np.ndarray]
    ground_truth: list[list[Box]]
    resolution: tuple[int, int]

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def nbytes(self) -> int:
        """Total frame-buffer size (what a pickle would have to move)."""
        return sum(f.nbytes for f in self.frames)

    # Clips cross process boundaries (the service layer's process
    # executor, spawn-safe work units), so pickling must be cheap: a
    # uniform clip serializes as ONE contiguous (N, H, W, C) block
    # instead of N separately-framed arrays.  Restored frames are views
    # into that block — read-only consumers (every pipeline path copies
    # before mutating) see bit-identical data.

    def __getstate__(self) -> dict:
        state = {"ground_truth": self.ground_truth, "resolution": self.resolution}
        uniform = len({(f.shape, f.dtype.str) for f in self.frames}) == 1
        if self.frames and uniform:
            state["frame_stack"] = np.stack(self.frames)
        else:
            state["frames"] = self.frames
        return state

    def __setstate__(self, state: dict) -> None:
        stack = state.pop("frame_stack", None)
        frames = list(stack) if stack is not None else state.pop("frames")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "ground_truth", state["ground_truth"])
        object.__setattr__(self, "resolution", state["resolution"])


def _render_clip(
    actors: Sequence[Actor],
    n_frames: int,
    resolution: tuple[int, int],
    backdrop: np.ndarray,
    seed: int,
    jitter: float,
) -> SyntheticClip:
    # Actor i's appearance comes from its own generator ``(seed, i)``, so
    # it is constant across frames: draw it once per clip, not per frame
    # (PersonStyle also memoizes the textured torso per region shape).
    styles = []
    for i, actor in enumerate(actors):
        appearance = np.random.default_rng((seed, i))
        if actor.kind == "person":
            styles.append(PersonStyle.draw(appearance, 0.3, 0.55))
        else:
            styles.append(vehicle_color(appearance, actor.kind))
    # Every primitive draws on all frames at once: the frames start as one
    # broadcast copy of the backdrop, and each actor's per-frame position
    # is a length-T array.  Actors still blend in order on every frame.
    block = np.empty((n_frames, *backdrop.shape), dtype=backdrop.dtype)
    block[:] = backdrop
    t = np.arange(n_frames)
    # One sized draw replays the scalar draws frame by frame, actor by
    # actor, dx before dy; without jitter every offset is 0.0.
    offsets = np.zeros((n_frames, len(actors), 2))
    if jitter:
        offsets = jitter * np.random.default_rng((seed, 999_331)).normal(
            size=offsets.shape
        )
    boxes = np.empty((n_frames, len(actors), 4))
    for i, (actor, style) in enumerate(zip(actors, styles)):
        x = actor.x + actor.vx * t + offsets[:, i, 0]
        y = actor.y + actor.vy * t + offsets[:, i, 1]
        if actor.kind == "person":
            boxes[:, i], _ = style.paint(block, x, y, actor.size)
        else:
            boxes[:, i] = paint_vehicle(block, actor.kind, style, x, y, actor.size)
    np.clip(block, 0.0, 1.0, out=block)
    ground_truth = [list(map(tuple, frame)) for frame in boxes.tolist()]
    return SyntheticClip(list(block), ground_truth, resolution)


def pedestrian_clip(
    n_frames: int = 32,
    resolution: tuple[int, int] = (256, 192),
    n_walkers: int = 3,
    seed: int = 4,
    speed: float = 2.0,
    jitter: float = 0.0,
) -> SyntheticClip:
    """Pedestrians crossing a textured plaza (CrowdHuman-flavored).

    Args:
        n_frames: clip length.
        resolution: ``(width, height)`` of the pixel array.
        n_walkers: number of pedestrians.
        seed: master seed (layout, appearance, texture).
        speed: nominal walking speed in px/frame (sign alternates).
        jitter: sigma of per-frame position jitter (0 = perfectly linear
            motion, the friendliest case for ROI reuse).
    """
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = colorize(
        value_noise((height, width), rng, octaves=4),
        (0.5, 0.49, 0.47),
        (0.66, 0.64, 0.61),
    )
    actors = []
    for i in range(n_walkers):
        h = height * rng.uniform(0.14, 0.26)
        direction = 1.0 if i % 2 == 0 else -1.0
        margin = 0.15 * width
        x0 = rng.uniform(margin, width - margin)
        y0 = rng.uniform(0.05 * height, height - 1.3 * h)
        actors.append(
            Actor(
                kind="person",
                x=x0,
                y=y0,
                size=h,
                vx=direction * speed * rng.uniform(0.7, 1.3),
            )
        )
    return _render_clip(actors, n_frames, resolution, backdrop, seed, jitter)


def drone_traffic_clip(
    n_frames: int = 32,
    resolution: tuple[int, int] = (256, 192),
    n_vehicles: int = 4,
    seed: int = 11,
    speed: float = 3.0,
    jitter: float = 0.0,
) -> SyntheticClip:
    """Top-down road traffic under a drone (VisDrone-flavored).

    Vehicles drive along horizontal lanes at lane-dependent speeds.
    """
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = colorize(
        value_noise((height, width), rng, octaves=3),
        (0.32, 0.33, 0.34),
        (0.45, 0.46, 0.47),
    )
    kinds = ["car", "car", "van", "truck"]
    actors = []
    for i in range(n_vehicles):
        lane_y = height * (i + 1) / (n_vehicles + 1)
        direction = 1.0 if i % 2 == 0 else -1.0
        actors.append(
            Actor(
                kind=kinds[i % len(kinds)],
                x=rng.uniform(0.2 * width, 0.8 * width),
                y=lane_y,
                size=width * rng.uniform(0.08, 0.14),
                vx=direction * speed * rng.uniform(0.8, 1.2),
            )
        )
    return _render_clip(actors, n_frames, resolution, backdrop, seed, jitter)


def ground_truth_detector(
    clip: SyntheticClip, score: float = 0.9, label: str = "object"
) -> tuple[Callable[[np.ndarray], list[Detection]], Callable[[int], None]]:
    """A stand-in stage-1 model that reads the clip's ground truth.

    The detector receives the *pooled* stage-1 frame, so boxes are scaled
    down by the pooling factor inferred from the frame width.  Wire the
    returned ``on_frame`` callback into :meth:`StreamRunner.run` so the
    detector knows which frame each call belongs to.

    Returns:
        ``(detect, on_frame)``.
    """
    state = {"frame": 0}
    width = clip.resolution[0]

    def on_frame(index: int) -> None:
        state["frame"] = index

    def detect(pooled_frame: np.ndarray) -> list[Detection]:
        k = width // pooled_frame.shape[1]
        boxes = clip.ground_truth[min(state["frame"], len(clip.ground_truth) - 1)]
        return [
            Detection(label, score, x / k, y / k, w / k, h / k)
            for x, y, w, h in boxes
        ]

    return detect, on_frame
