"""RAF-DB-like synthetic facial-expression dataset (7 classes).

The paper's end-to-end experiment (Table 3) trains an expression classifier
on RAF-DB crops whose resolution equals the detected head ROI (14x14 at a
320x240 array up to 112x112 at 2560x1920) and shows accuracy climbing with
ROI size.  That trend requires expression cues that live at *different
spatial frequencies*: coarse cues (mouth open/closed) survive 28x28, while
fine cues (brow angle, eye aperture, mouth curvature) need 56-112 px.

Faces here are rendered procedurally at a fixed canonical resolution
(:data:`CANONICAL_SIZE` = 224) and then area-downsampled to the requested
ROI size — exactly how an optical face image hits a coarser pixel grid, so
resolution is the *only* thing that changes across Table 3 rows.

Expression geometry (exaggerations of FACS action units):

==========  =============================================================
neutral     straight mouth, relaxed brows
happy       strong upward mouth curvature
sad         downward curvature + inner brows raised
surprise    wide-open mouth (tall ellipse) + raised brows + wide eyes
angry       inward/downward brow slant + compressed mouth
fear        open mouth (narrow) + raised brows + wide eyes
disgust     raised upper lip (mouth shifted up) + squinted eyes
==========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shapes import HAIR_COLORS, SKIN_TONES, fill_circle, fill_ellipse, fill_rect
from .textures import value_noise

#: Expression class names, label index = position.
EXPRESSIONS = ("neutral", "happy", "sad", "surprise", "angry", "fear", "disgust")

#: Canonical render size; ROI sizes must divide it (14, 28, 56, 112, 224).
CANONICAL_SIZE = 224


@dataclass(frozen=True)
class ExpressionParams:
    """Geometric knobs for one expression rendering.

    All values are in face-relative units (fractions of face size).
    """

    mouth_curve: float  # + = smile, - = frown
    mouth_open: float  # vertical mouth aperture
    mouth_width: float
    brow_raise: float  # + = raised
    brow_slant: float  # + = inner ends pulled down (anger)
    eye_open: float  # eye aperture multiplier
    mouth_shift: float = 0.0  # vertical mouth offset (+ = up, disgust)


_EXPRESSION_GEOMETRY: dict[str, ExpressionParams] = {
    "neutral": ExpressionParams(0.00, 0.012, 0.30, 0.00, 0.00, 1.00),
    "happy": ExpressionParams(0.09, 0.020, 0.36, 0.02, 0.00, 0.95),
    "sad": ExpressionParams(-0.07, 0.012, 0.28, 0.05, -0.12, 0.85),
    "surprise": ExpressionParams(0.00, 0.085, 0.22, 0.10, 0.00, 1.35),
    "angry": ExpressionParams(-0.03, 0.010, 0.30, -0.04, 0.22, 0.80),
    "fear": ExpressionParams(-0.02, 0.055, 0.24, 0.09, -0.05, 1.30),
    "disgust": ExpressionParams(-0.04, 0.018, 0.30, -0.02, 0.10, 0.60, 0.04),
}


def render_face(
    expression: str,
    rng: np.random.Generator,
    size: int = CANONICAL_SIZE,
) -> np.ndarray:
    """Render one face crop with the given expression.

    Identity (skin tone, face shape, hair, eye spacing) and pose jitter are
    sampled from ``rng``; expression geometry comes from the class with
    small per-sample jitter so classes overlap realistically.

    Args:
        expression: one of :data:`EXPRESSIONS`.
        rng: random generator (identity + jitter source).
        size: output side length in pixels.

    Returns:
        ``(size, size, 3)`` float64 image in [0, 1].
    """
    if expression not in _EXPRESSION_GEOMETRY:
        raise ValueError(f"unknown expression {expression!r}")
    p = _EXPRESSION_GEOMETRY[expression]

    def jit(value: float, sigma: float) -> float:
        return float(value + rng.normal(0.0, sigma))

    mouth_curve = jit(p.mouth_curve, 0.015)
    mouth_open = max(jit(p.mouth_open, 0.006), 0.004)
    mouth_width = jit(p.mouth_width, 0.02)
    brow_raise = jit(p.brow_raise, 0.012)
    brow_slant = jit(p.brow_slant, 0.03)
    eye_open = max(jit(p.eye_open, 0.08), 0.3)
    mouth_shift = jit(p.mouth_shift, 0.008)

    s = float(size)
    canvas = np.empty((size, size, 3))
    backdrop = value_noise((size, size), rng, octaves=3, base_cells=2)
    canvas[:] = (0.35 + 0.3 * backdrop)[:, :, None] * np.array([0.9, 0.95, 1.0])

    skin = np.asarray(SKIN_TONES[rng.integers(len(SKIN_TONES))])
    hair = np.asarray(HAIR_COLORS[rng.integers(len(HAIR_COLORS))])
    cx = s * jit(0.5, 0.01)
    cy = s * jit(0.52, 0.01)
    face_rx = s * jit(0.34, 0.015)
    face_ry = s * jit(0.42, 0.015)
    # The primitives draw on frame blocks: this face is a block of one
    # frame, its positions length-1 arrays.
    face = canvas[None]
    cx, cy = np.array([cx]), np.array([cy])

    # Hair mass behind the face, then the face ellipse.
    fill_ellipse(face, cx, cy - face_ry * 0.25, face_rx * 1.18, face_ry * 0.95, hair)
    fill_ellipse(face, cx, cy, face_rx, face_ry, skin)
    # Hairline cap.
    fill_ellipse(face, cx, cy - face_ry * 0.72, face_rx * 0.95, face_ry * 0.38, hair)

    eye_dx = face_rx * jit(0.45, 0.02)
    eye_y = cy - face_ry * 0.12
    eye_rx = face_rx * 0.20
    eye_ry = face_rx * 0.085 * eye_open
    iris = np.asarray((0.15, 0.25, 0.35)) if rng.random() < 0.4 else np.asarray((0.22, 0.14, 0.08))
    for side in (-1.0, 1.0):
        ex = cx + side * eye_dx
        fill_ellipse(face, ex, eye_y, eye_rx, eye_ry, (0.97, 0.97, 0.96))
        fill_circle(face, ex, eye_y, min(eye_ry * 0.85, eye_rx * 0.45), iris)
        fill_circle(face, ex, eye_y, min(eye_ry * 0.4, eye_rx * 0.2), (0.03, 0.03, 0.03))
        # Brow: a thin slanted bar above the eye.
        brow_y = eye_y - face_ry * (0.16 + brow_raise)
        brow_len = eye_rx * 2.4
        brow_h = max(face_ry * 0.035, 1.0)
        n_seg = 7
        for seg in range(n_seg):
            # frac runs -0.5 (outer brow end) .. +0.5 (inner end, near nose);
            # positive slant pulls the inner end down (the anger cue).
            frac = seg / (n_seg - 1) - 0.5
            seg_x = ex - side * frac * brow_len
            seg_y = brow_y - brow_slant * face_ry * frac * side
            fill_rect(
                face, seg_x - brow_len / (2 * n_seg), seg_y - brow_h / 2,
                brow_len / n_seg + 1, brow_h, hair * 0.6,
            )

    # Nose: subtle vertical shading.
    fill_rect(face, cx - face_rx * 0.045, cy - face_ry * 0.05, face_rx * 0.09,
              face_ry * 0.3, skin * 0.88)

    # Mouth: Bezier-ish arc approximated by elliptical segments.
    mouth_y = cy + face_ry * (0.42 - mouth_shift)
    mw = face_rx * 2.0 * mouth_width
    lip = np.asarray((0.62, 0.25, 0.25))
    n_seg = 11
    for seg in range(n_seg):
        frac = seg / (n_seg - 1) - 0.5  # -0.5..0.5 across the mouth
        seg_x = cx + frac * mw
        seg_y = mouth_y - mouth_curve * s * (1.0 - (2.0 * frac) ** 2)
        seg_h = max(mouth_open * s * (1.0 - (2.0 * frac) ** 2) + s * 0.008, 1.0)
        fill_ellipse(face, seg_x, seg_y, mw / (1.6 * n_seg), seg_h / 2.0, lip)
    if mouth_open > 0.03:
        # Visible mouth interior for open expressions.
        fill_ellipse(face, cx, mouth_y - mouth_curve * s, mw * 0.28,
                     mouth_open * s * 0.4, (0.15, 0.05, 0.06))

    return np.clip(canvas, 0.0, 1.0)


def _area_downsample(image: np.ndarray, size: int) -> np.ndarray:
    """Integer-factor area downsample from the canonical resolution."""
    factor = image.shape[0] // size
    if factor * size != image.shape[0]:
        raise ValueError(
            f"target size {size} must divide the canonical size {image.shape[0]}"
        )
    if factor == 1:
        return image
    h = w = size
    return image.reshape(h, factor, w, factor, 3).mean(axis=(1, 3))


def rafdb_like(
    n_images: int,
    size: int = 112,
    seed: int = 0,
    balanced: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a RAF-DB-like expression dataset.

    Args:
        n_images: number of faces.
        size: output resolution; must divide :data:`CANONICAL_SIZE`
            (valid: 14, 28, 56, 112, 224 and other divisors).
        seed: dataset seed (train/val splits should use different seeds).
        balanced: cycle through classes evenly; otherwise sample uniformly.

    Returns:
        ``(images, labels)``: float64 ``(N, size, size, 3)`` in [0, 1] and
        int64 ``(N,)`` with label index into :data:`EXPRESSIONS`.
    """
    if CANONICAL_SIZE % size != 0:
        raise ValueError(f"size must divide {CANONICAL_SIZE}, got {size}")
    images = np.empty((n_images, size, size, 3))
    labels = np.empty(n_images, dtype=np.int64)
    for i in range(n_images):
        rng = np.random.default_rng((seed, i))
        if balanced:
            label = i % len(EXPRESSIONS)
        else:
            label = int(rng.integers(len(EXPRESSIONS)))
        face = render_face(EXPRESSIONS[label], rng, CANONICAL_SIZE)
        images[i] = _area_downsample(face, size)
        labels[i] = label
    return images, labels
