"""Rasterization primitives and object renderers for synthetic scenes.

Everything draws in place onto float64 images in [0, 1].  The primitives
(:func:`fill_rect`, :func:`fill_ellipse`, :func:`fill_circle`) and the
painters (:meth:`PersonStyle.paint`, :func:`paint_vehicle`) draw one shape
on every frame of a ``(T, H, W, 3)`` block at once, from per-frame
positions given as length-T arrays; a single image is a block of one frame
(``canvas[None]``).  Each frame sees exactly the arithmetic of drawing it
alone: a pixel outside a frame's own clipped box gets coverage 0, which
leaves it unchanged.  Primitives are anti-aliased by coverage (a pixel's
color blends with the shape proportionally to its analytic coverage
estimate), which matters at the VisDrone-like scale where objects are only
a handful of pixels wide.

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

import numpy as np

from .textures import stripes

Box = tuple[float, float, float, float]


def _unit_clip(values: np.ndarray) -> np.ndarray:
    """``np.clip(values, 0.0, 1.0)`` for a ``... + 0.5`` coverage estimate.

    Skips ``np.clip``'s Python-level wrapper (several microseconds, paid
    thousands of times per clip).  The two agree bit for bit except on
    ``-0.0``, which ``np.clip`` keeps and ``np.maximum(-0.0, 0.0)`` turns
    into ``+0.0``; a sum with ``+0.5`` as one operand can never be
    ``-0.0``, so every caller passes such a sum.  NaN propagates in both.
    """
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _windows(
    canvas: np.ndarray, x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray
):
    """Each frame's pixel window for one primitive, or ``None`` if off-canvas.

    ``x0 … y1`` are the per-frame box bounds (whole numbers, before
    clipping).  A frame whose clipped box is empty is dropped.  The rest
    share one window size, the largest clipped box, and each frame's
    window is slid inside the canvas so it covers that frame's own box.

    Returns ``(frames, wx, wy, bw, bh, in_x, in_y)``: the kept frame
    indices (a slice when every frame is kept), their window corners
    (float64 whole numbers, length F), the window size, and per axis the
    ``(F, bw)`` / ``(F, bh)`` mask of the window columns / rows inside each
    frame's own box, or ``None`` when on that axis every window is its
    frame's box.
    """
    n_frames, height, width, _ = canvas.shape
    x0, x1 = np.maximum(x0, 0.0), np.minimum(x1, width)
    y0, y1 = np.maximum(y0, 0.0), np.minimum(y1, height)
    spans_x, spans_y = x1 - x0, y1 - y0
    on = np.minimum(spans_x, spans_y) > 0
    kept = np.count_nonzero(on)
    if kept == 0:
        return None
    frames = slice(None)
    if kept < n_frames:
        frames = np.flatnonzero(on)
        x0, x1, y0, y1 = x0[frames], x1[frames], y0[frames], y1[frames]
        spans_x, spans_y = spans_x[frames], spans_y[frames]
    # Python reductions: cheaper than NumPy's for a clip's few frames.
    spans_x, spans_y = spans_x.tolist(), spans_y.tolist()
    bw, bh = int(max(spans_x)), int(max(spans_y))
    if kept == 1:
        return frames, x0, y0, bw, bh, None, None
    wx, wy = np.minimum(x0, width - bw), np.minimum(y0, height - bh)
    in_x = _inside(wx, x0, x1, bw) if min(spans_x) < bw else None
    in_y = _inside(wy, y0, y1, bh) if min(spans_y) < bh else None
    return frames, wx, wy, bw, bh, in_x, in_y


def _inside(start: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Which of each window's ``size`` pixels lie in ``[lo, hi)``."""
    offsets = np.arange(size)
    return (offsets >= (lo - start)[:, None]) & (offsets < (hi - start)[:, None])


def _blend(canvas, frames, wx, wy, coverage, color) -> None:
    """Alpha-blend ``color`` into each frame's window with its ``coverage``.

    Per element: ``r + coverage * (color - r)``.  A masked-out pixel has
    coverage exactly 0, and ``r + 0 * (c - r) == r`` for the finite,
    non-negative canvas, so it is left as it was.
    """
    n_windows, bh, bw = coverage.shape
    if n_windows == 1:
        # One frame: its window is its own box, a plain slice.
        t = 0 if isinstance(frames, slice) else int(frames[0])
        x0, y0 = int(wx[0]), int(wy[0])
        region = canvas[t, y0 : y0 + bh, x0 : x0 + bw]
        region += coverage[0, :, :, None] * (np.asarray(color, dtype=np.float64) - region)
        return
    # Several frames: gather each window's pixels by flat index, blend,
    # scatter back.  Channels go one at a time, so each operation runs
    # over a long array instead of broadcasting over rows of three.
    n_frames, height, width, channels = canvas.shape
    if not canvas.flags.c_contiguous:
        raise ValueError("a multi-frame canvas must be a C-contiguous block")
    if isinstance(frames, slice):
        frames = np.arange(n_frames)
    rows = (frames * height + wy)[:, None] + np.arange(bh)
    cols = wx[:, None] + np.arange(bw)
    index = ((rows[:, :, None] * width + cols[:, None, :]) * channels).astype(np.intp)
    flat = canvas.reshape(-1)
    for k, value in enumerate(np.asarray(color, dtype=np.float64).tolist()):
        at = index + k if k else index
        region = flat.take(at)
        region += coverage * (value - region)
        flat[at] = region


def fill_rect(
    canvas: np.ndarray, x: np.ndarray, y: np.ndarray, w: float, h: float, color
) -> None:
    """Axis-aligned rectangle with edge anti-aliasing, on every frame.

    Args:
        canvas: ``(T, H, W, 3)`` frame block, drawn in place.
        x, y: per-frame top-left corner, arrays of length T.
        w, h: size in pixels (the same on every frame).
        color: RGB.
    """
    if w <= 0 or h <= 0:
        return
    x_end, y_end = x + w, y + h
    windows = _windows(canvas, np.floor(x), np.ceil(x_end), np.floor(y), np.ceil(y_end))
    if windows is None:
        return
    frames, wx, wy, bw, bh, in_x, in_y = windows
    # Pixel centers: exactly each frame's ``arange(x0, x1) + 0.5``.
    xs = (wx + 0.5)[:, None] + np.arange(bw)
    ys = (wy + 0.5)[:, None] + np.arange(bh)
    x, x_end = x[frames, None], x_end[frames, None]
    y, y_end = y[frames, None], y_end[frames, None]
    cov_x = _unit_clip(np.minimum(xs - x, x_end - xs) + 0.5)
    cov_y = _unit_clip(np.minimum(ys - y, y_end - ys) + 0.5)
    if in_x is not None:
        cov_x *= in_x
    if in_y is not None:
        cov_y *= in_y
    coverage = cov_y[:, :, None] * cov_x[:, None, :]
    _blend(canvas, frames, wx, wy, coverage, color)


def fill_ellipse(
    canvas: np.ndarray, cx: np.ndarray, cy: np.ndarray, rx: float, ry: float, color
) -> None:
    """Filled ellipse with ~1px soft edge, on every frame.

    The soft rim is truncated at the box ``floor(c - r - 1) … ceil(c + r +
    1)``: it reaches past it when ``rx / max(min(rx, ry), 1) > 3``, so the
    in-box mask, not the formula, keeps every other pixel of a frame.

    Args:
        canvas: ``(T, H, W, 3)`` frame block, drawn in place.
        cx, cy: per-frame center, arrays of length T.
        rx, ry: radii in pixels (the same on every frame).
        color: RGB.
    """
    if rx <= 0 or ry <= 0:
        return
    windows = _windows(
        canvas,
        np.floor(cx - rx - 1), np.ceil(cx + rx + 1),
        np.floor(cy - ry - 1), np.ceil(cy + ry + 1),
    )
    if windows is None:
        return
    frames, wx, wy, bw, bh, in_x, in_y = windows
    xs = ((wx + 0.5)[:, None] + np.arange(bw) - cx[frames, None]) / rx
    ys = ((wy + 0.5)[:, None] + np.arange(bh) - cy[frames, None]) / ry
    dist = np.sqrt(ys[:, :, None] ** 2 + xs[:, None, :] ** 2)
    # Coverage falls from 1 to 0 over roughly one pixel at the rim.
    edge = 1.0 / max(min(rx, ry), 1.0)
    coverage = _unit_clip((1.0 - dist) / edge + 0.5)
    if in_x is not None:
        coverage *= in_x[:, None, :]
    if in_y is not None:
        coverage *= in_y[:, :, None]
    _blend(canvas, frames, wx, wy, coverage, color)


def fill_circle(
    canvas: np.ndarray, cx: np.ndarray, cy: np.ndarray, r: float, color
) -> None:
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
        self, canvas: np.ndarray, cx: np.ndarray, top: np.ndarray, height: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Paint a standing person on every frame; returns ``(body, head)``.

        Proportions follow the classic 7.5-head figure: head diameter ~
        height/6 (a bit large, matching pedestrian-dataset head boxes),
        shoulder width ~ height/3.

        Args:
            canvas: ``(T, H, W, 3)`` frame block.
            cx: per-frame horizontal center in pixels, length T.
            top: per-frame y of the top of the head, length T.
            height: full body height in pixels.

        Returns:
            Two ``(T, 4)`` arrays of per-frame ``(x, y, w, h)`` boxes: full
            body and head.
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
        eye_y = head_cy - head_d * 0.05
        fill_circle(canvas, cx - head_d * 0.18, eye_y, eye_r, (0.05, 0.05, 0.08))
        fill_circle(canvas, cx + head_d * 0.18, eye_y, eye_r, (0.05, 0.05, 0.08))
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
            # A clipped torso can change shape from frame to frame, so
            # its memoized patch is assigned one frame at a time.
            height_px, width_px = canvas.shape[1:3]
            bounds = np.stack([
                np.floor(np.maximum(x, 0)),
                np.floor(np.maximum(torso_top, 0)),
                np.ceil(np.minimum(x + body_w, width_px)),
                np.ceil(np.minimum(torso_top + torso_h, height_px)),
            ], axis=1).astype(np.intp).tolist()
            pitch = max(height / 40.0, 1.6)
            for frame, (x0, y0, x1, y1) in zip(canvas, bounds):
                if x0 < x1 and y0 < y1:
                    frame[y0:y1, x0:x1] = self._torso((y1 - y0, x1 - x0), pitch)
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

        body = _boxes(cx - body_w / 2.0 - arm_w, top, body_w + 2 * arm_w, height)
        head = _boxes(cx - head_d * 0.55, top, head_d * 1.1, head_d * 1.1)
        return body, head


def _boxes(x: np.ndarray, y: np.ndarray, w: float, h: float) -> np.ndarray:
    """Per-frame ``(x, y, w, h)`` boxes as one ``(T, 4)`` float64 array."""
    boxes = np.empty((len(x), 4))
    boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3] = x, y, w, h
    return boxes


def _one_frame(box: np.ndarray) -> Box:
    """A single-frame ``(1, 4)`` box array as a tuple of Python floats."""
    return tuple(box[0].tolist())


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
        canvas: target ``(H, W, 3)`` image.
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
    body, head = style.paint(canvas[None], np.array([cx]), np.array([top]), height)
    return _one_frame(body), _one_frame(head)


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
    block, centre = canvas[None], np.array([cx])
    wheel_y = np.array([top + height - wheel_r])
    tire = (0.08, 0.08, 0.08)
    for wx in (centre - height * 0.22, centre + height * 0.22):
        fill_circle(block, wx, wheel_y, wheel_r, tire)
        fill_circle(block, wx, wheel_y, wheel_r * 0.55, frame_color)
    fill_rect(
        block, centre - height * 0.22, wheel_y - wheel_r * 0.2, height * 0.44,
        wheel_r * 0.3, frame_color,
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
    canvas: np.ndarray,
    kind: str,
    color: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    length: float,
) -> np.ndarray:
    """Top-down vehicle body in ``color`` on every frame of ``canvas``.

    Args:
        canvas: ``(T, H, W, 3)`` frame block.
        kind: a key of :data:`VEHICLE_STYLES`.
        color: body RGB.
        cx, cy: per-frame center in pixels, arrays of length T.
        length: vehicle length in pixels (width derives from the aspect).

    Returns:
        ``(T, 4)`` array of per-frame ``(x, y, w, h)`` boxes.
    """
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
    return _boxes(x, y, w, h)


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
        canvas: target ``(H, W, 3)`` image.
        rng: random generator (the body color's jitter).
        kind: a key of :data:`VEHICLE_STYLES`.
        cx, cy: center position in pixels.
        length: vehicle length in pixels (width derives from the aspect).

    Returns:
        ``(x, y, w, h)`` box.
    """
    color = vehicle_color(rng, kind)
    box = paint_vehicle(canvas[None], kind, color, np.array([cx]), np.array([cy]), length)
    return _one_frame(box)
