"""Clip rendering draws every frame of a clip at once, byte for byte.

``_render_clip`` draws each primitive once for all T frames of a clip:
the per-frame geometry is a length-T array, each primitive's coverage is
computed for every frame in one broadcast, and a pixel outside a frame's
own clipped box gets coverage exactly 0 (an explicit in-box mask, since
an elongated ellipse's soft rim reaches past its box).  The reference
below is the per-frame renderer it replaced, kept verbatim: one canvas
per frame, scalar primitives, actors blended in order.  Every property
compares frames by ``.tobytes()`` and ground-truth boxes by value and by
type (Python ``float``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.shapes import (
    VEHICLE_STYLES,
    PersonStyle,
    fill_ellipse,
    fill_rect,
    vehicle_color,
)
from repro.datasets.textures import stripes
from repro.stream.source import Actor, _render_clip


# -- the per-frame reference renderer --------------------------------------------


def _ref_unit_clip(values):
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _ref_blend(region, color, coverage):
    region += coverage[:, :, None] * (color[None, None, :] - region)


def ref_fill_rect(canvas, x, y, w, h, color):
    if w <= 0 or h <= 0:
        return
    H, W = canvas.shape[:2]
    x0, y0 = math.floor(x), math.floor(y)
    x1, y1 = math.ceil(x + w), math.ceil(y + h)
    x0c, y0c = max(x0, 0), max(y0, 0)
    x1c, y1c = min(x1, W), min(y1, H)
    if x0c >= x1c or y0c >= y1c:
        return
    xs = np.arange(x0c, x1c) + 0.5
    ys = np.arange(y0c, y1c) + 0.5
    cov_x = _ref_unit_clip(np.minimum(xs - x, x + w - xs) + 0.5)
    cov_y = _ref_unit_clip(np.minimum(ys - y, y + h - ys) + 0.5)
    coverage = cov_y[:, None] * cov_x[None, :]
    _ref_blend(canvas[y0c:y1c, x0c:x1c], np.asarray(color, dtype=np.float64), coverage)


def ref_fill_ellipse(canvas, cx, cy, rx, ry, color):
    if rx <= 0 or ry <= 0:
        return
    H, W = canvas.shape[:2]
    x0, y0 = max(math.floor(cx - rx - 1), 0), max(math.floor(cy - ry - 1), 0)
    x1, y1 = min(math.ceil(cx + rx + 1), W), min(math.ceil(cy + ry + 1), H)
    if x0 >= x1 or y0 >= y1:
        return
    xs = (np.arange(x0, x1) + 0.5 - cx) / rx
    ys = (np.arange(y0, y1) + 0.5 - cy) / ry
    dist = np.sqrt(ys[:, None] ** 2 + xs[None, :] ** 2)
    edge = 1.0 / max(min(rx, ry), 1.0)
    coverage = _ref_unit_clip((1.0 - dist) / edge + 0.5)
    _ref_blend(canvas[y0:y1, x0:x1], np.asarray(color, dtype=np.float64), coverage)


def ref_fill_circle(canvas, cx, cy, r, color):
    ref_fill_ellipse(canvas, cx, cy, r, r, color)


class RefPerson:
    """A person's look, painted one frame at a time (the replaced paint)."""

    def __init__(self, style: PersonStyle):
        self.skin, self.hair = style.skin, style.hair
        self.shirt, self.pants = style.shirt, style.pants
        self._rng = style._rng
        self._stripe_angle = None
        self._torsos = {}

    def _torso(self, shape, pitch):
        key = (shape, pitch)
        patch = self._torsos.get(key)
        if patch is None:
            if self._stripe_angle is None:
                self._stripe_angle = float(self._rng.uniform(0, 180))
            field = stripes(shape, pitch=pitch, angle_deg=self._stripe_angle)
            strength = 0.3
            textured = self.shirt[None, None, :] * (
                1.0 - strength + strength * field[:, :, None] * 2.0
            )
            patch = self._torsos[key] = np.clip(textured, 0.0, 1.0)
        return patch

    def paint(self, canvas, cx, top, height):
        head_d = height / 6.0
        body_w = height / 2.8
        shirt = self.shirt
        head_cy = top + head_d / 2.0
        ref_fill_circle(canvas, cx, head_cy, head_d / 2.0, self.skin)
        ref_fill_ellipse(canvas, cx, top + head_d * 0.28, head_d * 0.52, head_d * 0.33, self.hair)
        eye_r = max(head_d * 0.05, 0.4)
        ref_fill_circle(canvas, cx - head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
        ref_fill_circle(canvas, cx + head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
        ref_fill_rect(
            canvas, cx - head_d * 0.15, head_cy + head_d * 0.22, head_d * 0.3,
            max(head_d * 0.05, 0.4), (0.45, 0.2, 0.2),
        )
        torso_top = top + head_d
        torso_h = height * 0.38
        x = cx - body_w / 2.0
        if body_w < 1 or torso_h < 1:
            ref_fill_rect(canvas, x, torso_top, body_w, torso_h, shirt)
        else:
            x0, y0 = math.floor(max(x, 0)), math.floor(max(torso_top, 0))
            x1 = math.ceil(min(x + body_w, canvas.shape[1]))
            y1 = math.ceil(min(torso_top + torso_h, canvas.shape[0]))
            if x0 < x1 and y0 < y1:
                pitch = max(height / 40.0, 1.6)
                canvas[y0:y1, x0:x1] = self._torso((y1 - y0, x1 - x0), pitch)
        arm_w = body_w * 0.18
        ref_fill_rect(canvas, cx - body_w / 2.0 - arm_w, torso_top, arm_w, torso_h * 0.9, shirt)
        ref_fill_rect(canvas, cx + body_w / 2.0, torso_top, arm_w, torso_h * 0.9, shirt)
        legs_top = torso_top + torso_h
        leg_h = height - head_d - torso_h
        leg_w = body_w * 0.32
        ref_fill_rect(canvas, cx - body_w * 0.30, legs_top, leg_w, leg_h, self.pants)
        ref_fill_rect(canvas, cx + body_w * 0.30 - leg_w, legs_top, leg_w, leg_h, self.pants)
        return (cx - body_w / 2.0 - arm_w, top, body_w + 2 * arm_w, height)


def ref_paint_vehicle(canvas, kind, color, cx, cy, length):
    aspect, _, win_frac = VEHICLE_STYLES[kind]
    w = length
    h = max(length / aspect, 1.5)
    x, y = cx - w / 2.0, cy - h / 2.0
    ref_fill_rect(canvas, x, y, w, h, color)
    if win_frac > 0:
        ref_fill_rect(
            canvas, x + w * 0.22, y + h * 0.18, w * win_frac, h * 0.64,
            (0.1, 0.12, 0.18),
        )
    if kind in ("motor", "bicycle"):
        ref_fill_circle(canvas, x + w * 0.2, cy, h * 0.4, (0.05, 0.05, 0.05))
        ref_fill_circle(canvas, x + w * 0.8, cy, h * 0.4, (0.05, 0.05, 0.05))
    return (x, y, w, h)


def ref_render_clip(actors, n_frames, backdrop, seed, jitter):
    """The per-frame renderer: one canvas and one draw per (frame, actor)."""
    styles = []
    for i, actor in enumerate(actors):
        appearance = np.random.default_rng((seed, i))
        if actor.kind == "person":
            styles.append(RefPerson(PersonStyle.draw(appearance, 0.3, 0.55)))
        else:
            styles.append(vehicle_color(appearance, actor.kind))
    frames, ground_truth = [], []
    jitter_rng = np.random.default_rng((seed, 999_331))
    for t in range(n_frames):
        canvas = backdrop.copy()
        boxes = []
        for actor, style in zip(actors, styles):
            dx = jitter * jitter_rng.normal() if jitter else 0.0
            dy = jitter * jitter_rng.normal() if jitter else 0.0
            x = actor.x + actor.vx * t + dx
            y = actor.y + actor.vy * t + dy
            if actor.kind == "person":
                boxes.append(style.paint(canvas, x, y, actor.size))
            else:
                boxes.append(ref_paint_vehicle(canvas, actor.kind, style, x, y, actor.size))
        frames.append(np.clip(canvas, 0.0, 1.0, out=canvas))
        ground_truth.append(boxes)
    return frames, ground_truth


# -- strategies and the comparison ---------------------------------------------------

KINDS = ["person", *VEHICLE_STYLES]


@st.composite
def actors(draw, width, height):
    """An actor anywhere near the canvas, possibly larger than it."""
    kind = draw(st.sampled_from(KINDS))
    coord = st.floats(-1.5, 1.5, allow_nan=False)
    speed = st.floats(-20.0, 20.0, allow_nan=False)
    return Actor(
        kind=kind,
        x=draw(coord) * width,
        y=draw(coord) * height,
        size=draw(st.floats(0.5, 1.6 * max(width, height))),
        vx=draw(speed),
        vy=draw(st.one_of(st.just(0.0), speed)),
    )


@st.composite
def scenes(draw):
    width, height = draw(st.integers(4, 72)), draw(st.integers(4, 56))
    cast = draw(st.lists(actors(width, height), min_size=0, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    backdrop = rng.uniform(0.05, 0.95, (height, width, 3))
    return {
        "actors": cast,
        "n_frames": draw(st.integers(1, 40)),
        "resolution": (width, height),
        "backdrop": backdrop,
        "seed": draw(st.integers(0, 2**16)),
        "jitter": draw(st.sampled_from([0.0, 0.4, 1.5, 6.0])),
    }


def assert_same_clip(clip, frames, ground_truth):
    assert len(clip.frames) == len(frames)
    for got, want in zip(clip.frames, frames, strict=True):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert clip.ground_truth == ground_truth
    for boxes in clip.ground_truth:
        assert all(type(box) is tuple and len(box) == 4 for box in boxes)
        assert all(type(v) is float for box in boxes for v in box)


@settings(max_examples=150, deadline=None)
@given(scenes())
def test_render_clip_matches_per_frame_reference(scene):
    clip = _render_clip(
        scene["actors"], scene["n_frames"], scene["resolution"],
        scene["backdrop"], scene["seed"], scene["jitter"],
    )
    frames, ground_truth = ref_render_clip(
        scene["actors"], scene["n_frames"], scene["backdrop"],
        scene["seed"], scene["jitter"],
    )
    assert_same_clip(clip, frames, ground_truth)


@pytest.mark.parametrize("kind", list(VEHICLE_STYLES))
@settings(max_examples=8, deadline=None)
@given(
    n_frames=st.integers(1, 12),
    speed=st.floats(0.0, 20.0),
    seed=st.integers(0, 1000),
    jitter=st.sampled_from([0.0, 2.0]),
)
def test_every_vehicle_kind(kind, n_frames, speed, seed, jitter):
    """``motor``/``bicycle`` wheels are ellipses no shipped clip draws."""
    rng = np.random.default_rng(seed)
    backdrop = rng.uniform(0.1, 0.9, (40, 64, 3))
    cast = [
        Actor(kind, x=8.0 + i * 15.0, y=10.0 + i * 9.0, size=9.0 + 5.0 * i, vx=speed - 9.0 * i)
        for i in range(3)
    ]
    clip = _render_clip(cast, n_frames, (64, 40), backdrop, seed, jitter)
    assert_same_clip(clip, *ref_render_clip(cast, n_frames, backdrop, seed, jitter))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(0, 40), n_actors=st.integers(0, 12))
def test_sized_jitter_draw_replays_the_scalar_stream(seed, n_frames, n_actors):
    """One ``normal(size=(T, n, 2))`` draw equals the scalar draws in the
    per-frame order: frame, then actor, then dx before dy."""
    sized = np.random.default_rng((seed, 999_331)).normal(size=(n_frames, n_actors, 2))
    scalar_rng = np.random.default_rng((seed, 999_331))
    scalar = [scalar_rng.normal() for _ in range(n_frames * n_actors * 2)]
    assert sized.tobytes() == np.array(scalar, dtype=np.float64).tobytes()


def _frame_block(backdrop: np.ndarray, n_frames: int) -> np.ndarray:
    block = np.empty((n_frames, *backdrop.shape))
    block[:] = backdrop
    return block


@settings(max_examples=200, deadline=None)
@given(
    n_frames=st.integers(1, 8),
    cx=st.floats(-10.0, 50.0),
    cy=st.floats(-10.0, 40.0),
    rx=st.floats(0.05, 30.0),
    aspect=st.floats(3.01, 40.0),
    vx=st.floats(-6.0, 6.0),
    vertical=st.booleans(),
)
def test_elongated_ellipse_rim_stays_truncated(n_frames, cx, cy, rx, aspect, vx, vertical):
    """With ``rx / max(min(rx, ry), 1) > 3`` the soft rim reaches past the
    ellipse's box; every frame must still truncate it at its own box."""
    ry = rx / aspect
    if vertical:
        rx, ry = ry, rx
    rng = np.random.default_rng(n_frames)
    backdrop = rng.uniform(0.1, 0.9, (32, 40, 3))
    t = np.arange(n_frames)
    xs, ys = cx + vx * t, cy + 0.5 * vx * t
    block = _frame_block(backdrop, n_frames)
    fill_ellipse(block, xs, ys, rx, ry, (0.9, 0.2, 0.6))
    for i in range(n_frames):
        want = backdrop.copy()
        ref_fill_ellipse(want, float(xs[i]), float(ys[i]), rx, ry, (0.9, 0.2, 0.6))
        assert block[i].tobytes() == want.tobytes()


def test_elongated_ellipse_rim_would_leak_without_the_mask():
    """The case above is not vacuous: the formula alone leaves coverage
    outside the box, so a block primitive that trusted it would differ."""
    cx, cy, rx, ry = 20.3, 12.6, 12.0, 1.5
    x0, x1 = math.floor(cx - rx - 1), math.ceil(cx + rx + 1)
    y0, y1 = math.floor(cy - ry - 1), math.ceil(cy + ry + 1)
    ys = (np.arange(y0 - 3, y1 + 3) + 0.5 - cy) / ry
    xs = (np.arange(x0 - 3, x1 + 3) + 0.5 - cx) / rx
    dist = np.sqrt(ys[:, None] ** 2 + xs[None, :] ** 2)
    coverage = _ref_unit_clip((1.0 - dist) / (1.0 / max(min(rx, ry), 1.0)) + 0.5)
    inside = np.zeros_like(coverage, dtype=bool)
    inside[3:-3, 3:-3] = True
    assert coverage[~inside].max() > 0.0


@settings(max_examples=150, deadline=None)
@given(
    n_frames=st.integers(1, 8),
    x=st.floats(-30.0, 50.0),
    y=st.floats(-30.0, 40.0),
    w=st.floats(-1.0, 60.0),
    h=st.floats(-1.0, 50.0),
    vx=st.floats(-20.0, 20.0),
    vy=st.floats(-20.0, 20.0),
)
def test_fill_rect_matches_scalar_reference(n_frames, x, y, w, h, vx, vy):
    rng = np.random.default_rng(n_frames)
    backdrop = rng.uniform(0.1, 0.9, (30, 40, 3))
    t = np.arange(n_frames)
    xs, ys = x + vx * t, y + vy * t
    block = _frame_block(backdrop, n_frames)
    fill_rect(block, xs, ys, w, h, (0.3, 0.8, 0.1))
    for i in range(n_frames):
        want = backdrop.copy()
        ref_fill_rect(want, float(xs[i]), float(ys[i]), w, h, (0.3, 0.8, 0.1))
        assert block[i].tobytes() == want.tobytes()
