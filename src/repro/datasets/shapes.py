"""Rasterization primitives and object renderers for synthetic scenes.

Everything draws in-place onto a float64 ``(H, W, 3)`` canvas in [0, 1].
Primitives are anti-aliased by coverage (a pixel's color blends with the
shape proportionally to its analytic coverage estimate), which matters at
the VisDrone-like scale where objects are only a handful of pixels wide.

Object renderers return the ground-truth boxes the detection datasets need:

* :func:`draw_person` — torso/legs/arms/head; returns (body_box, head_box).
  It is :meth:`PersonStyle.draw` (the frame-independent look) followed by
  :meth:`PersonStyle.paint`, so a clip can draw each actor's style once;
* :func:`draw_cyclist` — a person over a two-wheel frame;
* :func:`draw_vehicle` — parameterized car/van/truck/bus/motor/... bodies
  for the VisDrone-like profile (:func:`vehicle_color` then
  :func:`paint_vehicle`).
"""

from __future__ import annotations

import math

import numpy as np

from .textures import stripes

Box = tuple[float, float, float, float]


def _blend(region: np.ndarray, color: np.ndarray, coverage: np.ndarray) -> None:
    """Alpha-blend ``color`` into ``region`` with per-pixel ``coverage``."""
    region += coverage[:, :, None] * (color[None, None, :] - region)


def _unit_clip(values: np.ndarray) -> np.ndarray:
    """``np.clip(values, 0.0, 1.0)`` for a ``... + 0.5`` coverage estimate.

    Skips ``np.clip``'s Python-level wrapper (several microseconds, paid
    thousands of times per clip).  The two agree bit for bit except on
    ``-0.0``, which ``np.clip`` keeps and ``np.maximum(-0.0, 0.0)`` turns
    into ``+0.0``; a sum with ``+0.5`` as one operand can never be
    ``-0.0``, so every caller passes such a sum.  NaN propagates in both.
    """
    return np.minimum(np.maximum(values, 0.0), 1.0)


def fill_rect(
    canvas: np.ndarray, x: float, y: float, w: float, h: float, color
) -> None:
    """Axis-aligned rectangle with edge anti-aliasing."""
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
    cov_x = _unit_clip(np.minimum(xs - x, x + w - xs) + 0.5)
    cov_y = _unit_clip(np.minimum(ys - y, y + h - ys) + 0.5)
    coverage = cov_y[:, None] * cov_x[None, :]
    _blend(canvas[y0c:y1c, x0c:x1c], np.asarray(color, dtype=np.float64), coverage)


def fill_ellipse(
    canvas: np.ndarray, cx: float, cy: float, rx: float, ry: float, color
) -> None:
    """Filled ellipse with ~1px soft edge."""
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
    # Coverage falls from 1 to 0 over roughly one pixel at the rim.
    edge = 1.0 / max(min(rx, ry), 1.0)
    coverage = _unit_clip((1.0 - dist) / edge + 0.5)
    _blend(canvas[y0:y1, x0:x1], np.asarray(color, dtype=np.float64), coverage)


def fill_circle(canvas: np.ndarray, cx: float, cy: float, r: float, color) -> None:
    fill_ellipse(canvas, cx, cy, r, r, color)


# -- skin/clothing palettes ------------------------------------------------------

SKIN_TONES = (
    (0.95, 0.80, 0.69),
    (0.87, 0.68, 0.53),
    (0.76, 0.57, 0.42),
    (0.55, 0.39, 0.29),
    (0.42, 0.29, 0.21),
)

HAIR_COLORS = (
    (0.08, 0.06, 0.05),
    (0.25, 0.15, 0.08),
    (0.45, 0.32, 0.14),
    (0.62, 0.55, 0.48),
    (0.12, 0.10, 0.11),
)


def clothing_color(
    rng: np.random.Generator, color_dependence: float, background_luma: float
) -> tuple[float, float, float]:
    """Sample a clothing color whose *detectability* depends on color.

    With high ``color_dependence`` the clothing is strongly chromatic but
    its *luminance* is matched to the background — so an RGB detector sees
    it clearly while a grayscale detector loses most of the contrast.  With
    low dependence the clothing contrasts in luminance too.

    Args:
        rng: random generator.
        color_dependence: 0 (luminance cue) .. 1 (pure chroma cue).
        background_luma: approximate background luminance to match against.

    Returns:
        RGB tuple.
    """
    hue = rng.uniform(0.0, 1.0)
    # Simple HSV->RGB with V chosen per the dependence knob.
    if rng.random() < color_dependence:
        target_luma = float(np.clip(background_luma + rng.normal(0.0, 0.04), 0.1, 0.9))
        saturation = 0.85
    else:
        offset = rng.choice([-0.35, 0.35])
        target_luma = float(np.clip(background_luma + offset, 0.05, 0.95))
        saturation = rng.uniform(0.2, 0.6)
    rgb = _hsv_to_rgb(hue, saturation, 1.0)
    luma = 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2]
    scale = target_luma / max(luma, 1e-6)
    return tuple(float(np.clip(c * scale, 0.0, 1.0)) for c in rgb)


def _hsv_to_rgb(h: float, s: float, v: float) -> tuple[float, float, float]:
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


# -- object renderers --------------------------------------------------------------


class PersonStyle:
    """A person's frame-independent appearance: palette and shirt texture.

    :meth:`draw` samples skin, hair and two clothing colors from ``rng``;
    the shirt's stripe angle is drawn from the same generator only when a
    torso first lands on the canvas, which is exactly when
    :func:`draw_person` has always drawn it.  So painting a style once
    consumes ``rng`` like a single :func:`draw_person` call, and painting
    it every frame of a clip matches re-drawing it per frame from a fresh
    generator with the same seed — while the colors are sampled once and
    the textured torso patch is memoized per region shape (it depends only
    on the shape, the stripe pitch, the angle and the shirt color).
    """

    def __init__(
        self,
        skin: np.ndarray,
        hair: np.ndarray,
        shirt: np.ndarray,
        pants: np.ndarray,
        rng: np.random.Generator,
    ):
        self.skin, self.hair, self.shirt, self.pants = skin, hair, shirt, pants
        self._rng = rng
        self._stripe_angle: float | None = None
        self._torsos: dict[tuple, np.ndarray] = {}

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        color_dependence: float = 0.5,
        background_luma: float = 0.5,
    ) -> "PersonStyle":
        """Sample a style (see :func:`clothing_color` for the two knobs)."""
        skin = np.asarray(SKIN_TONES[rng.integers(len(SKIN_TONES))])
        hair = np.asarray(HAIR_COLORS[rng.integers(len(HAIR_COLORS))])
        shirt = np.asarray(clothing_color(rng, color_dependence, background_luma))
        pants = np.asarray(clothing_color(rng, color_dependence, background_luma))
        return cls(skin, hair, shirt, pants, rng)

    def _torso(self, shape: tuple[int, int], pitch: float) -> np.ndarray:
        """The fabric-striped shirt patch for an on-canvas torso region."""
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

    def paint(
        self, canvas: np.ndarray, cx: float, top: float, height: float
    ) -> tuple[Box, Box]:
        """Paint a standing person; returns ``(body_box, head_box)``.

        Proportions follow the classic 7.5-head figure: head diameter ~
        height/6 (a bit large, matching pedestrian-dataset head boxes),
        shoulder width ~ height/3.

        Args:
            canvas: target image.
            cx: horizontal center in pixels.
            top: y of the top of the head.
            height: full body height in pixels.

        Returns:
            Two ``(x, y, w, h)`` boxes: full body and head.
        """
        head_d = height / 6.0
        body_w = height / 2.8
        shirt = self.shirt

        head_cy = top + head_d / 2.0
        # Head + hair cap.
        fill_circle(canvas, cx, head_cy, head_d / 2.0, self.skin)
        fill_ellipse(canvas, cx, top + head_d * 0.28, head_d * 0.52, head_d * 0.33, self.hair)
        # Facial micro-features (visible only at high resolution).
        eye_r = max(head_d * 0.05, 0.4)
        fill_circle(canvas, cx - head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
        fill_circle(canvas, cx + head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
        fill_rect(
            canvas, cx - head_d * 0.15, head_cy + head_d * 0.22, head_d * 0.3,
            max(head_d * 0.05, 0.4), (0.45, 0.2, 0.2),
        )

        # Torso with fabric stripes (pitch scales with size: fine detail).
        torso_top = top + head_d
        torso_h = height * 0.38
        x = cx - body_w / 2.0
        if body_w < 1 or torso_h < 1:
            fill_rect(canvas, x, torso_top, body_w, torso_h, shirt)
        else:
            x0, y0 = math.floor(max(x, 0)), math.floor(max(torso_top, 0))
            x1 = math.ceil(min(x + body_w, canvas.shape[1]))
            y1 = math.ceil(min(torso_top + torso_h, canvas.shape[0]))
            if x0 < x1 and y0 < y1:
                pitch = max(height / 40.0, 1.6)
                canvas[y0:y1, x0:x1] = self._torso((y1 - y0, x1 - x0), pitch)
        # Arms.
        arm_w = body_w * 0.18
        fill_rect(canvas, cx - body_w / 2.0 - arm_w, torso_top, arm_w, torso_h * 0.9, shirt)
        fill_rect(canvas, cx + body_w / 2.0, torso_top, arm_w, torso_h * 0.9, shirt)
        # Legs.
        legs_top = torso_top + torso_h
        leg_h = height - head_d - torso_h
        leg_w = body_w * 0.32
        fill_rect(canvas, cx - body_w * 0.30, legs_top, leg_w, leg_h, self.pants)
        fill_rect(canvas, cx + body_w * 0.30 - leg_w, legs_top, leg_w, leg_h, self.pants)

        body_box = (cx - body_w / 2.0 - arm_w, top, body_w + 2 * arm_w, height)
        head_box = (cx - head_d * 0.55, top, head_d * 1.1, head_d * 1.1)
        return body_box, head_box


def draw_person(
    canvas: np.ndarray,
    rng: np.random.Generator,
    cx: float,
    top: float,
    height: float,
    color_dependence: float = 0.5,
    background_luma: float = 0.5,
) -> tuple[Box, Box]:
    """Draw a standing person with a fresh style; see :class:`PersonStyle`.

    Args:
        canvas: target image.
        rng: random generator (the person's style).
        cx: horizontal center in pixels.
        top: y of the top of the head.
        height: full body height in pixels.
        color_dependence: see :func:`clothing_color`.
        background_luma: backdrop luminance near the person.

    Returns:
        Two ``(x, y, w, h)`` boxes: full body and head.
    """
    style = PersonStyle.draw(rng, color_dependence, background_luma)
    return style.paint(canvas, cx, top, height)


def draw_cyclist(
    canvas: np.ndarray,
    rng: np.random.Generator,
    cx: float,
    top: float,
    height: float,
    color_dependence: float = 0.5,
    background_luma: float = 0.5,
) -> Box:
    """Person on a bicycle; returns the enclosing box."""
    wheel_r = height * 0.18
    frame_color = np.asarray(clothing_color(rng, color_dependence * 0.5, background_luma))
    person_h = height * 0.72
    body_box, _ = draw_person(
        canvas, rng, cx, top, person_h, color_dependence, background_luma
    )
    wheel_y = top + height - wheel_r
    tire = (0.08, 0.08, 0.08)
    for wx in (cx - height * 0.22, cx + height * 0.22):
        fill_circle(canvas, wx, wheel_y, wheel_r, tire)
        fill_circle(canvas, wx, wheel_y, wheel_r * 0.55, frame_color)
    fill_rect(
        canvas, cx - height * 0.22, wheel_y - wheel_r * 0.2, height * 0.44, wheel_r * 0.3,
        frame_color,
    )
    x0 = min(body_box[0], cx - height * 0.22 - wheel_r)
    x1 = max(body_box[0] + body_box[2], cx + height * 0.22 + wheel_r)
    return (x0, top, x1 - x0, height)


#: VisDrone-like vehicle footprints: (aspect w/h, base RGB, window fraction).
VEHICLE_STYLES = {
    "car": (2.1, (0.75, 0.1, 0.1), 0.45),
    "van": (2.3, (0.85, 0.85, 0.9), 0.35),
    "truck": (2.9, (0.3, 0.4, 0.6), 0.25),
    "bus": (3.2, (0.9, 0.6, 0.1), 0.5),
    "motor": (1.9, (0.2, 0.2, 0.25), 0.0),
    "bicycle": (1.8, (0.15, 0.5, 0.2), 0.0),
    "tricycle": (1.6, (0.6, 0.3, 0.1), 0.2),
    "awning-tricycle": (1.6, (0.2, 0.5, 0.55), 0.3),
}


def vehicle_color(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A vehicle's body color: its kind's base RGB plus seeded jitter."""
    base = VEHICLE_STYLES[kind][1]
    jitter = rng.normal(0.0, 0.05, size=3)
    return np.clip(np.asarray(base) + jitter, 0.0, 1.0)


def paint_vehicle(
    canvas: np.ndarray, kind: str, color: np.ndarray, cx: float, cy: float, length: float
) -> Box:
    """Top-down vehicle body in ``color``; returns its ``(x, y, w, h)`` box."""
    aspect, _, win_frac = VEHICLE_STYLES[kind]
    w = length
    h = max(length / aspect, 1.5)
    x, y = cx - w / 2.0, cy - h / 2.0
    fill_rect(canvas, x, y, w, h, color)
    if win_frac > 0:
        fill_rect(
            canvas, x + w * 0.22, y + h * 0.18, w * win_frac, h * 0.64,
            (0.1, 0.12, 0.18),
        )
    if kind in ("motor", "bicycle"):
        fill_circle(canvas, x + w * 0.2, cy, h * 0.4, (0.05, 0.05, 0.05))
        fill_circle(canvas, x + w * 0.8, cy, h * 0.4, (0.05, 0.05, 0.05))
    return (x, y, w, h)


def draw_vehicle(
    canvas: np.ndarray,
    rng: np.random.Generator,
    kind: str,
    cx: float,
    cy: float,
    length: float,
) -> Box:
    """Top-down vehicle for aerial scenes; returns its box.

    Args:
        canvas: target image.
        rng: random generator (the body color's jitter).
        kind: a key of :data:`VEHICLE_STYLES`.
        cx, cy: center position in pixels.
        length: vehicle length in pixels (width derives from the aspect).

    Returns:
        ``(x, y, w, h)`` box.
    """
    return paint_vehicle(canvas, kind, vehicle_color(rng, kind), cx, cy, length)
